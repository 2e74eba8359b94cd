import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from chebdens import (
    InvariantViolationError,
    ResourceLimitError,
    RootSystemType,
    build_root_system,
    class_count,
    constants_for_group,
    enumerated_constants,
    invariant_degrees,
    parse_type,
    simple_reflection_perms,
    weyl_order,
)
from chebdens import weyl
from oracles import (
    class_count_by_dict,
    partitions_by_enumeration,
    reflection_perms_by_tuples,
    roots_by_tuple_closure,
    rows_from_tables,
    weyl_by_dict_bfs,
)

DEFAULT_CAP = weyl.DEFAULT_ENUMERATION_CAP

# every irreducible type whose Weyl group has at most 60 000 elements
_CANDIDATE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{fam}{n}" for fam in "BC" for n in range(2, 8)]
    + [f"D{n}" for n in range(4, 8)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
SMALL_TYPES = [label for label in _CANDIDATE_TYPES if weyl_order(parse_type(label)) <= 60_000]

# every irreducible type of rank at most 8
RANK_8_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{fam}{n}" for fam in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

# (label, rank, order, classes) for the cases quoted throughout
TABLE = [
    ("A1", 1, 2, 2),
    ("A2", 2, 6, 3),
    ("B2", 2, 8, 5),
    ("B3", 3, 48, 10),
    ("C3", 3, 48, 10),
    ("D4", 4, 192, 13),
    ("D5", 5, 1920, 18),
    ("G2", 2, 12, 6),
    ("F4", 4, 1152, 25),
    ("E6", 6, 51840, 25),
    ("E7", 7, 2903040, 60),
    ("E8", 8, 696729600, 112),
]


class TestTypes:
    def test_parse(self):
        assert parse_type("A1") == RootSystemType("A", 1)
        assert parse_type("e8") == RootSystemType("E", 8)
        assert parse_type("D_4") == RootSystemType("D", 4)

    @pytest.mark.parametrize("bad", ["G3", "F5", "E9", "E5", "D3", "B1", "A0", "H4", "XY"])
    def test_invalid_types_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_type(bad)


class TestTables:
    @pytest.mark.parametrize("label,rank,order,classes", TABLE)
    def test_constants(self, label, rank, order, classes):
        constants = constants_for_group(label)
        assert constants == (rank, order, classes, order)

    def test_e8_degrees_product(self):
        degrees = invariant_degrees(parse_type("E8"))
        assert degrees == (2, 8, 12, 14, 18, 20, 24, 30)
        assert weyl_order(parse_type("E8")) == 696729600

    def test_order_is_degree_product_and_classes_bounded(self):
        for label, _, order, classes in TABLE:
            t = parse_type(label)
            product = 1
            for deg in invariant_degrees(t):
                product *= deg
            assert weyl_order(t) == product == order
            assert 1 <= classes <= order

    @pytest.mark.parametrize("label", RANK_8_TYPES)
    def test_root_count_and_order_follow_from_the_degrees(self, label):
        # the roots are the reflection closure, independent of expected_root_count
        t = parse_type(label)
        degrees = invariant_degrees(t)
        assert len(build_root_system(t).roots) == 2 * sum(d - 1 for d in degrees)
        assert weyl_order(t) == math.prod(degrees)

    def test_symmetric_group_class_count_is_partitions(self):
        for n in range(1, 8):
            assert class_count(parse_type(f"A{n}")) == partitions_by_enumeration(n + 1)

    def test_bc_class_count_is_partition_pairs(self):
        for n in range(2, 7):
            expected = sum(
                partitions_by_enumeration(k) * partitions_by_enumeration(n - k)
                for k in range(n + 1)
            )
            assert class_count(parse_type(f"B{n}")) == expected
            assert class_count(parse_type(f"C{n}")) == expected

    def test_b4_value(self):
        assert class_count(parse_type("B4")) == 20


class TestRootSystems:
    @pytest.mark.parametrize("label,count", [
        ("A2", 6), ("A5", 30), ("B3", 18), ("C4", 32), ("D4", 24),
        ("G2", 12), ("F4", 48), ("E6", 72), ("E7", 126), ("E8", 240),
    ])
    def test_root_counts(self, label, count):
        data = build_root_system(label)
        assert len(data.roots) == count
        assert set(data.simple_roots) <= set(data.roots)
        assert data.d == data.type.rank

    def test_roots_closed_under_negation(self):
        data = build_root_system("F4")
        roots = set(data.roots)
        assert all(tuple(-x for x in r) in roots for r in roots)

    def test_deterministic_order(self):
        first = build_root_system("D4")
        second = build_root_system("D4")
        assert first.roots == second.roots

    @pytest.mark.parametrize("label", RANK_8_TYPES)
    def test_block_reflections_match_tuple_reflections(self, label):
        data = build_root_system(label)
        assert data.roots == roots_by_tuple_closure(data.simple_roots)
        assert all(type(x) is int for root in data.roots for x in root)
        assert simple_reflection_perms(data) == reflection_perms_by_tuples(data)

    def test_non_integral_pairing_raises(self, monkeypatch):
        # (1, -1) against (0, 3): 2 * (-3) / 9 is not an integer
        monkeypatch.setattr(weyl, "_simple_root_vectors", lambda rst_type: [(1, -1), (0, 3)])
        message = r"non-integral Cartan pairing for \(1, -1\) against \(0, 3\)"
        with pytest.raises(ArithmeticError, match=message):
            build_root_system("A2")
        with pytest.raises(ArithmeticError, match="non-integral Cartan pairing"):
            roots_by_tuple_closure([(1, -1), (0, 3)])


class TestEnumeration:
    @pytest.mark.parametrize("label,order,classes", [
        ("A1", 2, 2), ("A2", 6, 3), ("A3", 24, 5),
        ("B2", 8, 5), ("B3", 48, 10), ("C3", 48, 10),
        ("D4", 192, 13), ("G2", 12, 6), ("F4", 1152, 25),
    ])
    def test_oracle_matches_table(self, label, order, classes):
        assert enumerated_constants(label) == (order, classes)

    def test_enumerate_returns_permutation_group(self):
        elements, _ = weyl_by_dict_bfs("B2")
        assert len(elements) == 8
        assert len(set(elements)) == 8
        identity = tuple(range(8))
        assert identity in elements
        n = len(elements[0])
        assert all(sorted(e) == list(range(n)) for e in elements)

    def test_elements_preserve_inner_products(self):
        data = build_root_system("G2")
        roots = np.array(data.roots)
        gram = roots @ roots.T
        for element in weyl_by_dict_bfs("G2")[0]:
            perm = np.array(element)
            assert (gram[np.ix_(perm, perm)] == gram).all()

    def test_generators_are_involutions(self):
        data = build_root_system("B3")
        for perm in simple_reflection_perms(data):
            perm = np.array(perm)
            assert (perm[perm] == np.arange(len(perm))).all()

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            enumerated_constants("E7")
        with pytest.raises(ResourceLimitError):
            enumerated_constants("A3", cap=10)

    def test_conjugacy_count_without_generators(self):
        # the elements themselves generate the group
        elements, _ = weyl_by_dict_bfs("A2")
        assert class_count_by_dict(elements) == 3

    def test_conjugacy_count_with_generators(self):
        data = build_root_system("B3")
        elements, _ = weyl_by_dict_bfs("B3")
        assert class_count_by_dict(elements, simple_reflection_perms(data)) == 10


class TestCayleyTables:
    """The index tables of the keys-only BFS against the rows they stand for."""

    @pytest.mark.parametrize("label", ["A1", "G2", "B3", "D4", "F4", "A6", "E6"])
    def test_left_is_a_fixed_point_free_involution_across_levels(self, label):
        tables = weyl._cayley_tables(build_root_system(label), DEFAULT_CAP)
        size = tables.starts[-1]
        level = np.repeat(np.arange(len(tables.starts) - 1), np.diff(tables.starts))
        index = np.arange(size)
        for row in tables.left:
            assert row.min() >= 0
            assert (row[row] == index).all()
            assert (row != index).all()
            assert (np.abs(level[row] - level) == 1).all()

    @pytest.mark.parametrize("label", [
        "A3", "B3", "D4", "G2", "F4", "D5", "A6",
        # rank 8: keys of exactly 8 bytes; 362 880 elements, c = p(9) = 30
        pytest.param("A8", marks=pytest.mark.slow),
    ])
    def test_table_conjugates_act_on_rows(self, label):
        data = build_root_system(label)
        tables = weyl._cayley_tables(data, DEFAULT_CAP)
        rows = rows_from_tables(tables)
        assert len({row.tobytes() for row in rows}) == rows.shape[0] == data.w

        def checked(conjugates):
            # each refilled array is checked before _orbit_count reads it; the
            # row of s·v·s maps root k to s[v[s[k]]], and a level at a time
            # keeps the intp copy of the index small
            levels = list(zip(tables.starts, tables.starts[1:]))
            for s, conj in zip(tables.perms, conjugates):
                for lo, hi in levels:
                    assert np.array_equal(rows[conj[lo:hi]], s[rows[lo:hi][:, s]])
                yield conj

        assert weyl._orbit_count(data.w, checked(weyl._table_conjugates(tables))) == data.c

    def test_rows_follow_from_parents(self):
        data = build_root_system("F4")
        tables = weyl._cayley_tables(data, DEFAULT_CAP)
        rows = rows_from_tables(tables)
        # v is s_gen[v]·parent[v], and row left[i, v] is s_i applied to row v
        assert (tables.left[tables.gen[1:], tables.parent[1:]] == np.arange(1, data.w)).all()
        for s, products in zip(tables.perms, tables.left):
            assert (rows[products] == s[rows]).all()


class TestRowKeys:
    """``_row_keys`` against row equality, on both sides of the 8-byte packing."""

    @pytest.mark.parametrize("cols,dtype,packed", [
        (2, np.uint8, True),    # G2: padded with zero bytes
        (8, np.uint8, True),    # rank 8: exactly 8 bytes
        (9, np.uint8, False),   # A9: 9 bytes, np.void keys
        (4, np.uint16, True),   # more than 255 roots, 8 bytes
        (5, np.uint16, False),  # more than 255 roots, 10 bytes
    ])
    def test_keys_equal_exactly_when_rows_equal(self, cols, dtype, packed):
        rng = np.random.default_rng(cols)
        distinct = rng.integers(0, np.iinfo(dtype).max, size=(40, cols), endpoint=True, dtype=dtype)
        # rows that differ from row 0 only in the lowest or the highest bit of
        # the last column, and repeats
        distinct[1:3] = distinct[0]
        distinct[1, -1] ^= 1
        distinct[2, -1] ^= 1 << (8 * distinct.itemsize - 1)
        rows = np.concatenate([distinct, distinct[rng.integers(0, 40, size=300)]])
        keys = weyl._row_keys(rows)
        assert keys.shape == (340,)
        assert (keys.dtype == np.uint64) == packed
        _, by_key = np.unique(keys, return_inverse=True)
        _, by_row = np.unique(rows, axis=0, return_inverse=True)
        by_key, by_row = by_key.ravel(), by_row.ravel()
        # the two partitions of the rows coincide
        assert len(set(zip(by_key, by_row))) == by_key.max() + 1 == by_row.max() + 1


class TestEnumerationOracle:
    """The array-keyed enumeration against the dict-keyed BFS and orbit loop."""

    @pytest.mark.parametrize("label", [
        pytest.param(label, marks=pytest.mark.slow)
        if weyl_order(parse_type(label)) > 20_000 else label
        for label in SMALL_TYPES
    ])
    def test_matches_dict_bfs(self, label):
        elements, constants = weyl_by_dict_bfs(label)
        tables = weyl._cayley_tables(build_root_system(label), DEFAULT_CAP)
        assert set(map(tuple, rows_from_tables(tables).tolist())) == set(elements)
        assert enumerated_constants(label) == constants

    @pytest.mark.parametrize("label", ["A2", "B2", "G2"])
    def test_default_generators_match(self, label):
        elements, (_, count) = weyl_by_dict_bfs(label)
        assert class_count_by_dict(elements) == count == class_count(parse_type(label))


class TestTypedErrors:
    def test_root_count_invariant(self, monkeypatch):
        monkeypatch.setattr(weyl, "expected_root_count", lambda rst_type: 0)
        with pytest.raises(InvariantViolationError, match="generated 6 roots, expected 0"):
            build_root_system("A2")

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_element_count_invariant(self, delta):
        data = build_root_system("B3")
        wrong = dataclasses.replace(data, w=data.w + delta)
        with pytest.raises(InvariantViolationError, match="expected w ="):
            enumerated_constants(wrong)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_element_count_invariant_before_rows(self, delta):
        data = build_root_system("D4")
        wrong = dataclasses.replace(data, w=data.w + delta)
        with pytest.raises(InvariantViolationError, match=f"expected w = {data.w + delta}$"):
            enumerated_constants(wrong)

    @pytest.mark.parametrize("label,cap", [("E8", 10**9), ("E8", 10**30), ("A10", 10**8)])
    def test_memory_budget_refuses_before_allocating(self, label, cap):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError, match="over the budget"):
                enumerated_constants(label, cap=cap)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seconds <= 1.0
        assert peak <= 10 * 2**20

    def test_budget_admits_only_types_with_uint8_root_indices(self):
        # the Cayley tables hold root indices in uint8; the root counts come from
        # the degrees (checked against the generated roots up to rank 8), and a
        # refusal comes before the roots are read, so none are built here
        labels = ([f"A{n}" for n in range(1, 31)] + [f"{fam}{n}" for fam in "BC" for n in range(2, 31)]
                  + [f"D{n}" for n in range(4, 31)] + ["E6", "E7", "E8", "F4", "G2"])
        for label in labels:
            t = parse_type(label)
            if weyl.expected_root_count(t) > 255:
                unbuilt = weyl.RootSystemData(t, (), (), invariant_degrees(t), weyl_order(t), 0)
                with pytest.raises(ResourceLimitError, match="over the budget"):
                    enumerated_constants(unbuilt, cap=unbuilt.w)


@pytest.mark.slow
class TestLargeEnumeration:
    def test_d6(self):
        assert enumerated_constants("D6") == (23040, 37)

    def test_e6(self):
        assert enumerated_constants("E6") == (51840, 25)

    def test_e7_in_time_and_memory(self):
        # the table class count 60 (Carter 1972) gets a brute-force check
        tracemalloc.start()
        try:
            start = time.perf_counter()
            constants = enumerated_constants("E7", cap=3 * 10**6)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert constants == (2903040, 60)
        assert seconds <= 10.0
        assert peak <= 200 * 2**20
