import functools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import chebdens.cli as cli_mod
import chebdens.splitting as splitting_mod
from chebdens import (
    FrobeniusCycleType,
    InconsistencyError,
    InvariantViolationError,
    ModelFormatError,
    RamifiedPrimeError,
    abelian_model,
    cycle_type_predicate,
    frobenius_cycle_type,
    in_progression,
    intersect_splitting,
    load_model,
    model_from_dict,
    model_to_dict,
    poly_discriminant,
    residue_class_predicate,
    split_mask,
    splits_completely,
    splitting_field_model,
)
from chebdens.primes import PrimeRange, is_prime, sieve_primes
from oracles import (
    binomial_splits,
    brute_force_factor_degrees,
    cubic_two_splits,
    cycle_type_low_degree,
    legendre_splits,
    root_count,
)

X2P1 = splitting_field_model((1, 0, 1), 2)       # x^2 + 1
X3M2 = splitting_field_model((-2, 0, 0, 1), 6)   # x^3 - 2
MOD4 = abelian_model(4, [1])
LINEAR = splitting_field_model((3, 1), 1)         # x + 3
X4P2 = splitting_field_model((2, 0, 0, 0, 1), 8)  # x^4 + 2
X5M1 = splitting_field_model((-1, -1, 0, 0, 0, 1), 120)  # x^5 - x - 1
X3P7XM2 = splitting_field_model((-2, 7, 0, 1), 6)  # x^3 + 7x - 2, which is x^3 - 2 mod 7


class TestDiscriminant:
    def test_known_values(self):
        assert poly_discriminant((1, 0, 1)) == -4
        assert poly_discriminant((-2, 0, 0, 1)) == -108
        for d in (2, 3, 5, 7, 11):
            assert poly_discriminant((-d, 0, 1)) == 4 * d
        assert poly_discriminant((1, 0, 0, 0, 1)) == 256  # x^4 + 1
        assert poly_discriminant((1, 1, 1)) == -3

    def test_non_squarefree_rejected(self):
        with pytest.raises(ModelFormatError):
            splitting_field_model((1, 2, 1), 2)  # (x+1)^2


class TestModels:
    def test_bad_primes_from_discriminant(self):
        assert sorted(X2P1.bad_primes) == [2]
        assert sorted(X3M2.bad_primes) == [2, 3]
        assert sorted(splitting_field_model((-5, 0, 1), 2).bad_primes) == [2, 5]

    def test_discriminant_computed_once(self, monkeypatch):
        # splitting_field_model hands its discriminant to the model; a model built
        # directly computes it on first use; neither changes equality or repr
        calls = []
        disc = splitting_mod.poly_discriminant
        monkeypatch.setattr(splitting_mod, "poly_discriminant", lambda f: calls.append(f) or disc(f))
        model = splitting_field_model((-2, 0, 0, 1), 6)
        assert (model.discriminant, model.discriminant, len(calls)) == (-108, -108, 1)
        direct = splitting_mod.SplittingFieldModel((-2, 0, 0, 1), 6, frozenset({2, 3}))
        assert "discriminant" not in vars(direct) and len(calls) == 1
        assert (direct.discriminant, direct.discriminant, len(calls)) == (-108, -108, 2)
        assert direct == model and repr(direct) == repr(model) and hash(direct) == hash(model)

    def test_explicit_bad_primes_respected(self):
        model = splitting_field_model((1, 0, 1), 2, bad_primes=[2, 13])
        with pytest.raises(RamifiedPrimeError):
            splits_completely(model, 13)

    def test_galois_order_must_be_multiple_of_degree(self):
        with pytest.raises(ModelFormatError):
            splitting_field_model((-2, 0, 0, 1), 4)

    def test_non_monic_rejected(self):
        with pytest.raises(ModelFormatError):
            splitting_field_model((1, 0, 2), 2)

    def test_abelian_residues_must_be_subgroup(self):
        with pytest.raises(ModelFormatError):
            abelian_model(8, [1, 3, 5])  # not closed: 3*5 = 15 = 7 mod 8
        with pytest.raises(ModelFormatError):
            abelian_model(8, [3, 5])  # missing 1
        with pytest.raises(ModelFormatError):
            abelian_model(8, [1, 2])  # 2 is not a unit
        assert abelian_model(8, [1, 3]).degree == 2

    def test_trivial_modulus_is_all_primes(self):
        trivial = abelian_model(1, [1])
        assert trivial.degree == 1
        assert splits_completely(trivial, 2) and splits_completely(trivial, 97)


class TestSplitsCompletely:
    def test_spec_examples(self):
        assert splits_completely(MOD4, 5) is True
        assert splits_completely(X2P1, 7) is False
        assert splits_completely(X3M2, 31) is True
        with pytest.raises(RamifiedPrimeError):
            splits_completely(X2P1, 2)

    def test_quadratics_against_euler_criterion(self, primes_1e4):
        for d in (2, 3, 5):
            model = splitting_field_model((-d, 0, 1), 2)
            for p in primes_1e4[:300].tolist():
                if p in model.bad_primes:
                    continue
                assert splits_completely(model, p) == legendre_splits(d, p)

    def test_cubic_against_residue_oracle(self, primes_1e4):
        for p in primes_1e4.tolist():
            if p in (2, 3):
                continue
            assert splits_completely(X3M2, p) == cubic_two_splits(p)


class TestCycleTypes:
    def test_spec_examples(self):
        assert frobenius_cycle_type(X2P1, 13).degrees == (1, 1)
        assert frobenius_cycle_type(X2P1, 7).degrees == (2,)
        assert frobenius_cycle_type(X3M2, 5).degrees == (1, 2)
        assert frobenius_cycle_type(X3M2, 7).degrees == (3,)

    def test_against_root_count_oracle(self, primes_1e4):
        for model in (X2P1, X3M2):
            for p in primes_1e4[:200].tolist():
                if p in model.bad_primes:
                    continue
                assert frobenius_cycle_type(model, p).degrees == cycle_type_low_degree(
                    model.poly, p
                )

    def test_against_brute_force_factorization(self):
        # exhaustive trial division over GF(p): shares nothing with the
        # distinct-degree code path, so agreement is a strong check
        models = [
            X2P1,
            X3M2,
            splitting_field_model((1, 0, 0, 0, 1), 4),       # x^4 + 1
            splitting_field_model((-1, -2, 1, 1), 3),        # cyclic cubic
            splitting_field_model((-2, 0, -2, 1, 0, 1), 60),  # (x^2+1)(x^3-2)
            splitting_field_model((1, 1, 1, 1, 1), 4),       # 5th cyclotomic
        ]
        for model in models:
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
                if p in model.bad_primes:
                    continue
                expected = brute_force_factor_degrees(model.poly, p)
                assert frobenius_cycle_type(model, p).degrees == expected, (model.poly, p)

    def test_quartic_degrees_sum_and_orders(self, primes_1e4):
        quartic = splitting_field_model((1, 0, 0, 0, 1), 4)  # x^4 + 1, Galois group C2 x C2
        for p in primes_1e4[1:300].tolist():
            ct = frobenius_cycle_type(quartic, p)
            assert sum(ct.degrees) == 4
            # all degrees equal (Galois), and the shape follows p mod 8
            assert len(set(ct.degrees)) == 1
            expected = (1, 1, 1, 1) if p % 8 == 1 else (2, 2)
            assert ct.degrees == expected

    def test_galois_uniformity_for_quadratics(self, primes_1e5):
        model = splitting_field_model((-3, 0, 1), 2)
        sample = primes_1e5[::97].tolist()
        for p in sample:
            if p in model.bad_primes:
                continue
            assert len(set(frobenius_cycle_type(model, p).degrees)) == 1

    def test_galois_uniformity_for_cyclic_cubic(self, primes_1e5):
        # x^3 + x^2 - 2x - 1 has square discriminant 49, so its splitting
        # field is the cubic itself: cycle types are {1,1,1} or {3}, never {1,2}
        cyclic = splitting_field_model((-1, -2, 1, 1), 3)
        assert sorted(cyclic.bad_primes) == [7]
        for p in primes_1e5.tolist():
            if p == 7:
                continue
            ct = frobenius_cycle_type(cyclic, p).degrees
            assert ct in ((1, 1, 1), (3,))
            # the splitting set is exactly the residue classes +-1 mod 7
            assert (ct == (1, 1, 1)) == (p % 7 in (1, 6))

    def test_splits_iff_all_ones(self, primes_1e4):
        for p in primes_1e4[:150].tolist():
            if p in X3M2.bad_primes:
                continue
            all_ones = frobenius_cycle_type(X3M2, p).degrees == (1, 1, 1)
            assert splits_completely(X3M2, p) == all_ones

    def test_product_polynomial_merges_factor_shapes(self, primes_1e4):
        # f = (x^2+1)(x^3-2): factorization mod p is the product of the
        # factorizations, so cycle types must merge as multisets
        # (true splitting-field degree is 12; the declared order must be a
        # multiple of deg f = 5, so a common multiple stands in)
        product = splitting_field_model((-2, 0, -2, 1, 0, 1), 60)
        for p in primes_1e4[:120].tolist():
            if p in product.bad_primes:
                continue
            merged = tuple(sorted(
                frobenius_cycle_type(X2P1, p).degrees
                + frobenius_cycle_type(X3M2, p).degrees
            ))
            assert frobenius_cycle_type(product, p).degrees == merged

    def test_wrong_galois_order_diagnosed(self):
        lying = splitting_field_model((-2, 0, 0, 1), 3)  # claims degree 3, truly 6
        with pytest.raises(InconsistencyError) as scalar_error:
            frobenius_cycle_type(lying, 5)  # order-2 Frobenius does not divide 3
        message = str(scalar_error.value)
        assert message.startswith("observed Frobenius order 2 at p=5 does not divide galois_order=3")
        primes = np.array([7, 13, 5, 11], dtype=np.int64)  # {3}, {3}, then {1,2}
        with pytest.raises(InconsistencyError) as mask_error:
            cycle_type_predicate(lying, (1, 2)).mask(primes)
        seen, counts, error = _gathered_cycle_counts(lying, primes)
        assert (type(error), str(error), str(mask_error.value)) == (InconsistencyError, message, message)
        assert seen.tolist() == [7, 13] and counts.tolist() == [[0, 0], [0, 0], [1, 1]]
        # a prime listed in bad_primes raises the scalar RamifiedPrimeError
        with pytest.raises(RamifiedPrimeError) as ramified_error:
            frobenius_cycle_type(lying, 3)
        seen, counts, error = _gathered_cycle_counts(lying, np.array([7, 3, 13], dtype=np.int64))
        assert (type(error), str(error)) == (RamifiedPrimeError, str(ramified_error.value))
        assert seen.tolist() == [7]

    def test_ramified_prime_rejected(self):
        with pytest.raises(RamifiedPrimeError):
            frobenius_cycle_type(X3M2, 3)

    def test_cycle_type_normalizes_and_validates(self):
        assert FrobeniusCycleType((2, 1)).degrees == (1, 2)
        with pytest.raises(ValueError):
            FrobeniusCycleType((0, 2))


class TestModelAgreement:
    def test_gaussian_field_two_descriptions_agree(self, primes_1e6):
        vec = split_mask(X2P1, primes_1e6)
        residue = split_mask(MOD4, primes_1e6)
        assert (vec == residue).all()

    def test_sqrt3_field_two_descriptions_agree(self, primes_1e5):
        # Q(sqrt 3) sits inside Q(zeta_12) as the fixed field of {1, 11}:
        # 3 is a square mod p exactly when p = +-1 mod 12
        poly = splitting_field_model((-3, 0, 1), 2)
        residue = abelian_model(12, [1, 11])
        assert sorted(poly.bad_primes) == [2, 3] == sorted(residue.bad_primes)
        assert (split_mask(poly, primes_1e5) == split_mask(residue, primes_1e5)).all()

    def test_vectorized_matches_scalar(self, primes_1e4, primes_1e5):
        # a degree-1 polynomial, an empty array, and an array longer than one
        # batched block (primes_1e5 has 9592 entries) besides the cubic
        cases = [
            (X3M2, primes_1e4, 37),
            (LINEAR, primes_1e4, 37),
            (X3M2, primes_1e4[:0], 1),
            (X3M2, primes_1e5, 1),
        ]
        assert len(primes_1e5) > splitting_mod._BLOCK
        for model, primes, step in cases:
            mask = split_mask(model, primes)
            assert mask.shape == primes.shape
            for i in range(0, len(primes), step):
                p = int(primes[i])
                expected = False if p in model.bad_primes else splits_completely(model, p)
                assert bool(mask[i]) == expected

    def test_array_paths_never_call_single_prime_code(self, monkeypatch):
        # primes just above 2^26 run in int64 blocks; a window straddling the
        # int64 bound of x^3 - 2 runs as one object block of Python ints
        limit = splitting_mod._batch_limit(3)
        assert limit == 1_753_413_057
        single = {name: getattr(splitting_mod, name)
                  for name in ("splits_completely", "frobenius_cycle_type")}
        calls = []
        for name, fn in single.items():
            monkeypatch.setattr(splitting_mod, name,
                                lambda *args, fn=fn: calls.append(args) or fn(*args))
        shapes = ((1, 1, 1), (1, 2), (3,))
        results = []
        for lo, hi, dtype in ((2**26 + 1, 2**26 + 400, np.int64), (limit - 300, limit + 300, object)):
            big = sieve_primes(PrimeRange(lo, hi))
            assert big.size > 0
            mixed = np.concatenate([np.array([5, 13, 31], dtype=np.int64), big])
            assert [p.dtype for _, p in splitting_mod._blocks(mixed, 3)] == [dtype]
            masks = {d: cycle_type_predicate(X3M2, d).mask(mixed) for d in shapes}
            blocks = cli_mod._scan_blocks(X3M2, lo, hi, splitting_mod.ramified_primes_in(X3M2, lo, hi))
            records = [{"p": p, **recs[i]} for block, index, recs in blocks for p, i in zip(block, index)]
            results.append((mixed, split_mask(X3M2, mixed), masks, records))
        assert calls == []
        assert min(big.tolist()) <= limit < max(big.tolist())
        monkeypatch.undo()
        for mixed, mask, masks, records in results:
            for i, p in enumerate(mixed.tolist()):
                degrees = frobenius_cycle_type(X3M2, p).degrees
                assert bool(mask[i]) == splits_completely(X3M2, p) == cubic_two_splits(p)
                assert [bool(masks[d][i]) for d in shapes] == [degrees == d for d in shapes]
            assert [r["p"] for r in records] == mixed.tolist()[3:]
            for r in records:
                degrees = frobenius_cycle_type(X3M2, r["p"]).degrees
                assert (r["splits"], r["cycle_type"]) == (cubic_two_splits(r["p"]), list(degrees))


class TestPathAgreement:
    @pytest.mark.parametrize("path", [
        lambda model, p: split_mask(model, np.array([p], dtype=np.int64)),
        lambda model, p: splits_completely(model, p),
        lambda model, p: frobenius_cycle_type(model, p),
        lambda model, p: list(splitting_mod._cycle_types(model, np.array([p], dtype=np.int64))),
    ], ids=["split_mask", "splits_completely", "frobenius_cycle_type", "cycle_types"])
    def test_incomplete_bad_primes_raise(self, path):
        # disc(x^2 - 12) = 48, so 3 is ramified but missing from bad_primes
        model = splitting_field_model((-12, 0, 1), 2, bad_primes=[2])
        with pytest.raises(InconsistencyError):
            path(model, 3)

    def test_coefficient_beyond_int64(self, primes_1e4):
        model = splitting_field_model((2**70 + 1, 0, 1), 2)  # x^2 + (2^70 + 1)
        mask = split_mask(model, primes_1e4)
        for p, got in zip(primes_1e4.tolist(), mask.tolist()):
            assert got == (p not in model.bad_primes and splits_completely(model, p))
        mods = np.array([2, 3, 2**31 - 1, 2**32 - 5, 2**32], dtype=np.int64)
        for value in (0, -1, 2**31, 2**70 + 1, -(3**200)):
            assert splitting_mod._mod_int(value, mods).tolist() == [value % m for m in mods.tolist()]

    def test_nonzero_ddf_remainder_is_an_invariant_violation(self, monkeypatch):
        divmod_ = splitting_mod._divmod
        monkeypatch.setattr(
            splitting_mod, "_divmod", lambda f, g, p: (divmod_(f, g, p)[0], [1])
        )
        with pytest.raises(InvariantViolationError):
            frobenius_cycle_type(X3M2, 5)


def _window_primes(lo: int, count: int) -> list[int]:
    return sieve_primes(PrimeRange(lo, lo + 2000)).tolist()[:count]


def _primes_near(center: int, count: int) -> list[int]:
    """The ``count`` primes below ``center`` and the ``count`` primes from it on."""
    below = [p for p in range(center - 1, center - 5000, -1) if is_prime(p)][:count]
    above = [p for p in range(center, center + 5000) if is_prime(p)][:count]
    return sorted(below) + above


def _gathered_cycle_counts(model, primes):
    """The yields of ``_cycle_types`` concatenated: (primes, counts, error raised or None).

    Column j of ``counts`` holds c_1..c_n, the numbers of degree-k factors
    of f mod the j-th prime, rebuilt from its cycle type.
    """
    blocks, error = [], None
    try:
        blocks.extend(splitting_mod._cycle_types(model, primes))
    except (RamifiedPrimeError, InconsistencyError, InvariantViolationError) as exc:
        error = exc
    n = model.poly_degree
    for block, index, shapes in blocks:
        assert len(index) == len(block) and len(set(shapes)) == len(shapes)
    seen = np.concatenate([np.zeros(0, dtype=np.int64)] + [b for b, _, _ in blocks])
    columns = [np.bincount(shapes[i].degrees, minlength=n + 1)[1:]
               for _, index, shapes in blocks for i in index]
    counts = np.array(columns, dtype=np.int64).reshape(-1, n).T
    return seen, counts, error


def _counts_of(model, p: int) -> list[int]:
    return np.bincount(frobenius_cycle_type(model, p).degrees, minlength=model.poly_degree + 1)[1:].tolist()


class TestBatchedEngineDifferential:
    """The batched engine against the single-prime code and the root-count oracle.

    Each drawn array runs twice: whole, as one block holding primes above
    the int64 bound (so an object block of Python ints), and restricted to
    the primes up to that bound (an int64 block).  The examples start the
    window at 2, so the primes 2, 3, 5 and 7, which are at most deg f and
    take the distinct-degree route, are unramified columns of the block.
    """

    @given(
        st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(-50, 50), min_size=n, max_size=n)),
        st.integers(2, 10**4 - 2000),
        st.integers(-10**5, 10**5),
        st.integers(1, 10**5),
        st.integers(1, 10**5),
    )
    @example([-1, -1, 0, 0, 0], 2, 0, 1, 1)  # x^5 - x - 1, disc 19 * 151
    @example([-1, -1, 0, 0, 0, 0, 0, 0], 2, 0, 1, 1)  # x^8 - x - 1, disc -11 * 1600069
    # binomials take the monomial route of _x_pow_p, which random coefficients
    # almost never draw; x^4 + 2 (disc 2^11) and x^8 + 3 (disc 2^24 * 3^7)
    # keep 3, resp. 5 and 7, as unramified columns with p <= deg f
    @example([-2, 0, 0], 2, 0, 1, 1)  # x^3 - 2, disc -2^2 * 3^3
    @example([2, 0, 0, 0], 2, 0, 1, 1)  # x^4 + 2
    @example([3, 0, 0, 0, 0, 0, 0, 0], 2, 0, 1, 1)  # x^8 + 3
    @settings(max_examples=60, deadline=None)
    def test_batched_matches_single_prime_paths(self, lower, small, near_2_26, below, above):
        poly = tuple(lower) + (1,)
        n = len(lower)
        assume(poly_discriminant(poly) != 0)
        # bad_primes left empty: primes dividing the discriminant must then
        # raise the same InconsistencyError on every path
        model = splitting_field_model(poly, math.factorial(n), bad_primes=[])
        limit = splitting_mod._batch_limit(n)
        primes = (_window_primes(small, 4) + _window_primes(2**26 + near_2_26, 3)
                  + _window_primes(limit - below, 3) + _window_primes(limit + above, 3))
        disc = model.discriminant
        whole = np.array([p for p in primes if disc % p], dtype=np.int64)
        ramified = next((q for q in _window_primes(2, 300) if disc % q == 0), None)
        if ramified is not None:
            with pytest.raises(InconsistencyError) as scalar_error:
                frobenius_cycle_type(model, ramified)
            with pytest.raises(InconsistencyError):
                splits_completely(model, ramified)
        for clean, dtype in ((whole, object), (whole[whole <= limit], np.int64)):
            assert [p.dtype for _, p in splitting_mod._blocks(clean, n)] == [dtype]
            seen, counts, error = _gathered_cycle_counts(model, clean)
            assert error is None and seen.tolist() == clean.tolist()
            mask = split_mask(model, clean)
            for j, p in enumerate(clean.tolist()):
                assert counts[:, j].tolist() == _counts_of(model, p), (poly, p)
                assert bool(mask[j]) == splits_completely(model, p)
                if p < 2000:
                    assert counts[0, j] == root_count(poly, p)
            # an incomplete bad_primes: a prime dividing disc f, placed mid-array
            if ramified is None:
                continue
            mixed = np.concatenate([clean[:2], [ramified], clean[2:]])
            with pytest.raises(InconsistencyError) as mask_error:
                split_mask(model, mixed)
            with pytest.raises(InconsistencyError) as shape_error:
                cycle_type_predicate(model, (1,) * n).mask(mixed)
            seen, counts, error = _gathered_cycle_counts(model, mixed)
            assert type(error) is InconsistencyError
            messages = {str(e) for e in (error, mask_error.value, shape_error.value)}
            assert messages == {str(scalar_error.value)}
            assert seen.tolist() == clean[:2].tolist() and counts.shape == (n, seen.size)

    def test_counts_that_are_no_cycle_type_raise(self, monkeypatch):
        # x^p zeroed in the column of p = 11 leaves Q = diag(1, 0, 0), whose
        # traces claim one root of x^3 - 2 in every GF(11^d): no cycle type,
        # so the true one, {1,2}, comes from frobenius_cycle_type
        x_pow_p = splitting_mod._x_pow_p

        def corrupted(*args):
            r = x_pow_p(*args)
            r[:, 2] = 0
            return r

        monkeypatch.setattr(splitting_mod, "_x_pow_p", corrupted)
        primes = np.array([5, 7, 11, 13, 17], dtype=np.int64)
        seen, counts, error = _gathered_cycle_counts(X3M2, primes)
        assert type(error) is InvariantViolationError
        assert str(error) == "the batched engine gives counts [1, 0, 0] at p=11, not the cycle type {1,2}"
        assert seen.tolist() == [5, 7] and counts.tolist() == [[1, 0], [1, 0], [0, 1]]

    def test_binomial_only_mod_p(self):
        # 7 does not divide disc(x^3 + 7x - 2) = -1480
        primes = np.array([7], dtype=np.int64)
        assert not splitting_mod._reduction_rows(X3P7XM2.poly, primes)[0, 1:].any()
        seen, counts, error = _gathered_cycle_counts(X3P7XM2, primes)
        assert error is None and seen.tolist() == [7]
        assert counts[:, 0].tolist() == _counts_of(X3P7XM2, 7) == [0, 0, 1]
        assert split_mask(X3P7XM2, primes).tolist() == [splits_completely(X3P7XM2, 7)] == [False]

    def test_binomial_masks_skip_the_polynomial_ladder(self, monkeypatch, primes_1e4):
        cases = [(X3M2, primes_1e4), (X4P2, primes_1e4)]
        expected = [split_mask(model, primes) for model, primes in cases]

        def refuse(*args):
            raise RuntimeError("_block_mulmod called")

        monkeypatch.setattr(splitting_mod, "_block_mulmod", refuse)
        for (model, primes), mask in zip(cases, expected):
            assert (split_mask(model, primes) == mask).all()
        # the route is read off f's coefficients, so x^3 + 7x - 2 runs the
        # ladder even at 7, where it is x^3 - 2
        for model, primes in ((X5M1, primes_1e4), (X3P7XM2, np.array([7], dtype=np.int64))):
            with pytest.raises(RuntimeError, match="_block_mulmod called"):
                split_mask(model, primes)

        # x^3 - 2 can split only at p = 1 (mod 3): 611 of the 1229 primes below 10^4
        # reach the ladder, all of them in that class
        received = []
        x_pow_p = splitting_mod._x_pow_p

        def recording(poly, p):
            received.extend(p.tolist())
            return x_pow_p(poly, p)

        monkeypatch.setattr(splitting_mod, "_x_pow_p", recording)
        assert (split_mask(X3M2, primes_1e4) == expected[0]).all()
        assert len(received) == 611 and primes_1e4.size == 1229
        assert received == [p for p in primes_1e4.tolist() if p % 3 == 1]

    def test_binomial_masks_build_no_reduction_rows(self, monkeypatch, primes_1e4):
        """x^n - a reads a = -f(0) mod p alone, on int64 and object blocks."""
        cases = []
        for model in (X3M2, X2P1, X4P2):
            n = model.poly_degree
            limit = splitting_mod._batch_limit(n)
            window = np.array(_primes_near(limit, 6), dtype=np.int64)
            for primes, dtype in ((primes_1e4, np.int64), (window[window <= limit], np.int64),
                                  (window, object)):
                assert [p.dtype for _, p in splitting_mod._blocks(primes, n)] == [dtype]
                cases.append((model, primes, split_mask(model, primes)))

        def refuse(*args):
            raise RuntimeError("_reduction_rows called")

        monkeypatch.setattr(splitting_mod, "_reduction_rows", refuse)
        for model, primes, mask in cases:
            assert (split_mask(model, primes) == mask).all()
        with pytest.raises(RuntimeError, match="_reduction_rows called"):
            split_mask(X5M1, primes_1e4)

    @given(
        st.integers(2, 8),
        st.one_of(st.integers(1, 10**7), st.integers(-10**7, -1)),
        st.integers(2, 10**4 - 2000),
        st.integers(1, 10**5),
        st.integers(1, 10**5),
    )
    # |a| (p - 1)^2 passes 2^63 in the int64 block: the ladder also reduces after squaring
    @example(3, 12, 2, 1, 1)
    @example(8, -10**7, 2, 1, 1)
    # it stays below 2^63: one reduction per step
    @example(2, -1, 2, 1, 1)  # x^2 + 1
    @example(8, -3, 2, 1, 1)  # x^8 + 3
    @settings(max_examples=25, deadline=None)
    def test_binomials_match_scalar_paths_and_residue_criterion(self, n, a, small, below, above):
        """x^n - a on int64 and object blocks against the scalar code and ``binomial_splits``.

        bad_primes is left empty, so the smallest prime q dividing n, which
        divides disc f = +-n^n a^(n-1) and is not 1 (mod n), must raise the
        scalar InconsistencyError from the middle of the array.
        """
        model = splitting_field_model((-a,) + (0,) * (n - 1) + (1,), math.factorial(n), bad_primes=[])
        limit = splitting_mod._batch_limit(n)
        primes = (_window_primes(small, 6) + _window_primes(limit - below, 3)
                  + _window_primes(limit + above, 3))
        whole = np.array([p for p in primes if (n * a) % p], dtype=np.int64)
        truth = {p: (_counts_of(model, p), splits_completely(model, p)) for p in whole.tolist()}
        q = next(d for d in (2, 3, 5, 7) if n % d == 0)
        with pytest.raises(InconsistencyError) as scalar_error:
            splits_completely(model, q)
        for clean, dtype in ((whole, object), (whole[whole <= limit], np.int64)):
            assert [p.dtype for _, p in splitting_mod._blocks(clean, n)] == [dtype]
            seen, counts, error = _gathered_cycle_counts(model, clean)
            assert error is None and seen.tolist() == clean.tolist()
            mask = split_mask(model, clean)
            for j, p in enumerate(clean.tolist()):
                assert counts[:, j].tolist() == truth[p][0], (n, a, p)
                assert bool(mask[j]) == truth[p][1] == binomial_splits(a, n, p), (n, a, p)
            mixed = np.concatenate([clean[:2], [q], clean[2:]])
            with pytest.raises(InconsistencyError) as mask_error:
                split_mask(model, mixed)
            assert str(mask_error.value) == str(scalar_error.value)

    def test_ramified_prime_off_the_residue_class_raises(self):
        # disc(x^3 - 12) = -2^4 3^5: 3 is ramified but missing from bad_primes, and
        # 3 is not 1 (mod 3), so the binomial filter alone would mark it False
        model = splitting_field_model((-12, 0, 0, 1), 6, bad_primes=[2])
        with pytest.raises(InconsistencyError) as scalar_error:
            splits_completely(model, 3)
        for primes in ([3], [7, 13, 3, 19]):
            with pytest.raises(InconsistencyError) as error:
                split_mask(model, np.array(primes, dtype=np.int64))
            assert str(error.value) == str(scalar_error.value)


@functools.lru_cache(maxsize=None)
def _primes_near_2_40() -> list[int]:
    return _primes_near(2**40, 2)


def _ladder_splits(poly, primes: np.ndarray) -> list[bool]:
    """x^p == x mod (f, p) from ``_x_pow_p`` on the engine's blocks, int64 or ``object``."""
    out = []
    for _, p in splitting_mod._blocks(primes, len(poly) - 1):
        xp = splitting_mod._x_pow_p(poly, p)
        out += ((xp[1] == 1) & (xp[0] == 0)).tolist()
    return out


class TestQuadraticSymbolTable:
    """Split masks of x^2 + bx + c read (D/p) off a table of the classes mod 4|D|."""

    LIMIT = splitting_mod._SYMBOL_LIMIT

    @given(
        st.integers(-60, 60),
        st.integers(-3000, 3000),
        st.sampled_from([0, 1, -1]),
        st.integers(3, 10**4),
        st.integers(1, 10**5),
    )
    @example(0, 1, 0, 3, 1)  # x^2 + 1, D = -4
    @example(-1, -1, 0, 3, 1)  # x^2 - x - 1, D = 5: 2 is unramified and inert
    @example(0, -3, 0, 3, 1)  # x^2 - 3, D = 12
    @example(3, -10, 0, 3, 1)  # x^2 + 3x - 10 = (x + 5)(x - 2), D = 49
    @example(1, 0, 0, 3, 1)  # x^2 + x, D = 1: 2 is unramified and splits
    @example(0, 0, 1, 3, 1)  # x^2 - 25000, D = LIMIT: the table
    @example(0, -1, 1, 3, 1)  # x^2 - 25001, D = LIMIT + 4: the ladder
    @example(1, 1, 1, 3, 1)  # x^2 + x - 24999, D = LIMIT - 3
    @example(1, 0, 1, 3, 1)  # x^2 + x - 25000, D = LIMIT + 1
    @example(0, 0, -1, 3, 1)  # x^2 + 25000, D = -LIMIT
    @example(0, 1, -1, 3, 1)  # x^2 + 25001, D = -LIMIT - 4
    @settings(max_examples=60, deadline=None)
    def test_table_matches_ladder_and_scalar_paths(self, b, c, near, small, above):
        """The table against ``_x_pow_p``, ``splits_completely`` and the mask the ladder route gives.

        With ``near`` set, c is shifted so that D lies within about 10^4 of
        +-LIMIT, on either side.  The primes hold 2, every prime dividing D,
        small primes, primes just above ``_batch_limit(2)``, where the ladder
        takes ``object`` blocks and the table stays int64, and primes near 2^40.
        """
        if near:
            c += (b * b - near * self.LIMIT) // 4
        poly = (c, b, 1)
        disc = b * b - 4 * c
        assume(disc != 0)
        ramified = sorted(splitting_mod.prime_factors(disc), reverse=True)
        primes = sorted({2, *_window_primes(small, 6),
                         *_window_primes(splitting_mod._batch_limit(2) + above, 3),
                         *_primes_near_2_40()} - set(ramified))
        whole = np.array(primes, dtype=np.int64)
        model = splitting_field_model(poly, 2, bad_primes=[])
        mask = split_mask(model, whole)
        assert (model._symbol_table is None) == (abs(disc) > self.LIMIT)
        assert mask.tolist() == _ladder_splits(poly, whole) == [splits_completely(model, p) for p in primes]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(splitting_mod, "_SYMBOL_LIMIT", -1)
            ladder = splitting_field_model(poly, 2, bad_primes=[])
            assert (split_mask(ladder, whole) == mask).all() and ladder._symbol_table is None
            # an incomplete bad_primes raises at the first prime dividing D in
            # array order, the same error as the ladder route and the scalar code
            mixed = np.array(primes[:3] + ramified + primes[3:], dtype=np.int64)
            if ramified:
                with pytest.raises(InconsistencyError) as ladder_error:
                    split_mask(ladder, mixed)
        # with the full excluded set the primes dividing D are False, the others unchanged
        complete = split_mask(splitting_field_model(poly, 2), mixed).tolist()
        assert complete == mask[:3].tolist() + [False] * len(ramified) + mask[3:].tolist()
        if not ramified:  # D = 1
            return
        with pytest.raises(InconsistencyError) as scalar_error:
            splits_completely(model, ramified[0])
        with pytest.raises(InconsistencyError) as mask_error:
            split_mask(model, mixed)
        assert str(mask_error.value) == str(ladder_error.value) == str(scalar_error.value)

    def test_quadratic_masks_skip_the_ladder(self, monkeypatch, primes_1e4):
        polys = [(1, 0, 1), (-3, 0, 1), (-1, -1, 1)]  # x^2 + 1, x^2 - 3, x^2 - x - 1
        expected = [split_mask(splitting_field_model(poly, 2), primes_1e4) for poly in polys]

        def refuse(*args):
            raise RuntimeError("_x_pow_p called")

        monkeypatch.setattr(splitting_mod, "_x_pow_p", refuse)
        # fresh models, so their tables are built with the ladder refused too
        for poly, mask in zip(polys, expected):
            assert (split_mask(splitting_field_model(poly, 2), primes_1e4) == mask).all()
        # |D| = LIMIT reads the table; |D| = LIMIT + 4 and LIMIT + 1 run the ladder
        c = self.LIMIT // 4
        split_mask(splitting_field_model((c, 0, 1), 2), primes_1e4)
        for poly in ((c + 1, 0, 1), (-c, 1, 1)):
            assert abs(poly_discriminant(poly)) > self.LIMIT
            with pytest.raises(RuntimeError, match="_x_pow_p called"):
                split_mask(splitting_field_model(poly, 2), primes_1e4)

    def test_table_is_built_once_per_model(self, monkeypatch, primes_1e4):
        builds = []
        symbols = splitting_mod._quadratic_symbols
        monkeypatch.setattr(splitting_mod, "_quadratic_symbols",
                            lambda *args: builds.append(args) or symbols(*args))
        model = splitting_field_model((-1, -1, 1), 2)
        assert builds == []
        first = split_mask(model, primes_1e4)
        assert (split_mask(model, primes_1e4[::2]) == first[::2]).all()
        assert builds == [((-1, -1, 1), 5)]
        # classes mod 20 that hold primes: (5/p) = 1 exactly at p = +-1 (mod 5),
        # 0 at 5, and x^2 - x - 1 is irreducible mod 2
        table = model._symbol_table
        assert table.size == 20
        assert [table[r] for r in (1, 2, 3, 5, 7, 9, 11, 13, 17, 19)] == [1, -1, -1, 0, -1, 1, 1, -1, -1, 1]
        assert X3M2._symbol_table is None and LINEAR._symbol_table is None


class TestPrimesBeyond2To32:
    """Array primes far beyond the int64 bound, where blocks hold Python ints."""

    MODELS = (X3M2, X5M1)

    @pytest.mark.parametrize("center", [2**33, 2**40, 2**61], ids=["2^33", "2^40", "2^61"])
    def test_array_paths_match_single_prime(self, center, monkeypatch, capsys):
        window = np.array(_primes_near(center, 3), dtype=np.int64)
        # the sieve refuses ranges above 2^40, so the scan is handed the window as one segment
        monkeypatch.setattr(cli_mod, "iter_prime_segments", lambda rng: iter([window]))
        for model in self.MODELS:
            expected = [frobenius_cycle_type(model, p).degrees for p in window.tolist()]
            mask = split_mask(model, window)
            assert mask.tolist() == [splits_completely(model, p) for p in window.tolist()]
            for degrees in set(expected):
                shape_mask = cycle_type_predicate(model, degrees).mask(window)
                assert shape_mask.tolist() == [d == degrees for d in expected]
            poly = ",".join(map(str, model.poly))
            code = cli_mod.main(["frob", f"--poly={poly}", "--galois-order", str(model.galois_order),
                                 "--lo", str(window[0]), "--hi", str(window[-1] + 1),
                                 "--format", "csv"])
            lines = capsys.readouterr().out.splitlines()
            assert code == 0
            assert lines == ["p,cycle_type"] + [
                f"{p},{'|'.join(map(str, d))}" for p, d in zip(window.tolist(), expected)
            ]

    def test_mod_int_on_object_array(self):
        mods = np.array([2, 3, 2**32 + 15, 2**40 + 15, 2**61 - 1, 2**63 - 25], dtype=object)
        for value in (0, -1, 2**31, 2**70 + 1, -(3**200)):
            got = splitting_mod._mod_int(value, mods)
            assert got.dtype == object
            assert got.tolist() == [value % m for m in mods.tolist()]

    def test_incomplete_bad_primes_above_int64_bound(self, capsys):
        # disc(x^2 - q) = 4q, so q is ramified but missing from bad_primes
        limit = splitting_mod._batch_limit(2)
        q = next(p for p in range(limit + 1, limit + 1000) if is_prime(p))
        model = splitting_field_model((-q, 0, 1), 2, bad_primes=[2])
        around = sieve_primes(PrimeRange(q - 200, q + 200)).tolist()
        before = [3, 5, 7] + [p for p in around if p < q]
        mixed = np.array(before + [p for p in around if p >= q], dtype=np.int64)
        assert [p.dtype for _, p in splitting_mod._blocks(mixed, 2)] == [object]
        with pytest.raises(InconsistencyError) as scalar_error:
            frobenius_cycle_type(model, q)
        message = str(scalar_error.value)
        assert f"f mod {q} is not squarefree" in message
        paths = [
            lambda: splits_completely(model, q),
            lambda: split_mask(model, mixed),
            lambda: cycle_type_predicate(model, (1, 1)).mask(mixed),
        ]
        for path in paths:
            with pytest.raises(InconsistencyError) as error:
                path()
            assert str(error.value) == message
        seen, counts, error = _gathered_cycle_counts(model, mixed)
        assert (type(error), str(error)) == (InconsistencyError, message)
        assert seen.tolist() == before
        assert counts.tolist() == [[_counts_of(model, p)[k] for p in before] for k in range(2)]
        code = cli_mod.main(["frob", f"--poly={-q},0,1", "--galois-order", "2", "--bad-primes", "2",
                             "--lo", str(q - 200), "--hi", str(q + 200), "--format", "csv"])
        out, err = capsys.readouterr()
        assert (code, err) == (1, f"error: {message}\n")
        assert [int(line.split(",")[0]) for line in out.splitlines()[1:]] == before[3:]


class TestPredicates:
    def test_progression_examples(self):
        assert in_progression(intersect_splitting([X2P1]), 13) is True
        assert in_progression(cycle_type_predicate(X2P1, (2,)), 7) is True
        assert in_progression(cycle_type_predicate(X3M2, (3,)), 31) is False

    def test_intersection_examples(self):
        both = intersect_splitting(
            [splitting_field_model((-2, 0, 1), 2), splitting_field_model((-3, 0, 1), 2)]
        )
        assert both(23) is True   # 2 and 3 are both squares mod 23
        assert both(5) is False   # 2 is not a square mod 5
        assert intersect_splitting([X2P1])(5) is True
        with pytest.raises(ValueError):
            intersect_splitting([])

    def test_intersection_mask_is_conjunction(self, primes_1e4):
        models = [splitting_field_model((-d, 0, 1), 2) for d in (2, 3)]
        pred = intersect_splitting(models)
        mask = pred.mask(primes_1e4)
        expected = split_mask(models[0], primes_1e4) & split_mask(models[1], primes_1e4)
        assert (mask == expected).all()

    def test_compositum_intersection_densities(self, primes_1e5):
        # pairwise composita have degree 4, the triple degree 8, so the
        # intersections should show densities near 1/4 and 1/8
        models = {d: splitting_field_model((-d, 0, 1), 2) for d in (2, 3, 5)}
        total = len(primes_1e5)
        pair = intersect_splitting([models[2], models[3]]).mask(primes_1e5)
        triple = intersect_splitting(list(models.values())).mask(primes_1e5)
        assert abs(pair.sum() / total - 0.25) < 0.01
        assert abs(triple.sum() / total - 0.125) < 0.01

    def test_quartic_class_weights(self, primes_1e5):
        # Gal(Q(zeta_8)/Q) = C2 x C2: identity (shape {1,1,1,1}) has weight
        # 1/4, the three involutions (shape {2,2}) together have weight 3/4
        quartic = splitting_field_model((1, 0, 0, 0, 1), 4)
        split_shape = cycle_type_predicate(quartic, (1, 1, 1, 1)).mask(primes_1e5[:3000])
        double_shape = cycle_type_predicate(quartic, (2, 2)).mask(primes_1e5[:3000])
        n = 3000
        assert abs(split_shape.sum() / n - 0.25) < 0.05
        assert abs(double_shape.sum() / n - 0.75) < 0.05
        assert int(split_shape.sum() + double_shape.sum()) == n - 1  # p = 2 excluded

    def test_residue_class_predicate(self, primes_1e4):
        odd = residue_class_predicate(MOD4, [1, 3])
        mask = odd.mask(primes_1e4)
        assert mask.sum() == len(primes_1e4) - 1  # everything except p = 2
        with pytest.raises(ValueError):
            residue_class_predicate(abelian_model(8, [1, 3]), [1])  # not a union of cosets

    def test_cycle_type_predicate_mask(self, primes_1e4, primes_1e5):
        # also a degree-1 polynomial, an empty array, and an array longer
        # than one batched block
        cases = [
            (X2P1, (2,), primes_1e4[:100], lambda p: p != 2 and p % 4 == 3),
            (LINEAR, (1,), primes_1e4[:100], lambda p: True),
            (X2P1, (2,), primes_1e4[:0], None),
            (X2P1, (2,), primes_1e5, lambda p: p != 2 and p % 4 == 3),
        ]
        for model, degrees, primes, expected in cases:
            mask = cycle_type_predicate(model, degrees).mask(primes)
            assert mask.shape == primes.shape
            assert mask.tolist() == [expected(p) for p in primes.tolist()]

    def test_bad_primes_union(self):
        pred = intersect_splitting([X2P1, X3M2])
        assert sorted(pred.bad_primes) == [2, 3]

    def test_cycle_target_must_sum_to_degree(self):
        with pytest.raises(ValueError):
            cycle_type_predicate(X3M2, (2, 2))


class TestModelIO:
    def test_round_trip(self, tmp_path):
        for model in (X2P1, X3M2, MOD4):
            path = tmp_path / "model.json"
            path.write_text(json.dumps(model_to_dict(model)))
            assert load_model(str(path)) == model

    def test_dict_variants(self):
        model = model_from_dict(
            {"variant": "splitting_field", "poly": [-2, 0, 0, 1], "galois_order": 6}
        )
        assert model == X3M2
        model = model_from_dict({"variant": "abelian", "modulus": 4, "residues": [1]})
        assert model == MOD4

    def test_diagnostics(self, tmp_path):
        with pytest.raises(ModelFormatError, match="variant"):
            model_from_dict({"variant": "weird"})
        with pytest.raises(ModelFormatError, match="galois_order"):
            model_from_dict({"variant": "splitting_field", "poly": [1, 0, 1]})
        with pytest.raises(ModelFormatError, match="not closed"):
            model_from_dict({"variant": "abelian", "modulus": 8, "residues": [1, 3, 5]})
        broken = tmp_path / "broken.json"
        broken.write_text('{"variant": "abelian",')
        with pytest.raises(ModelFormatError, match="line 1"):
            load_model(str(broken))
