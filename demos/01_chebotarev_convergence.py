"""
Splitting statistics converge to the Chebotarev reference density
=================================================================

A prime p splits completely in the splitting field of a polynomial f
exactly when f mod p factors into distinct linear factors.  Chebotarev's
density theorem says the set of such primes has density 1/[L:Q], so
counting split primes below growing cutoffs should approach that value.
"""

from chebdens import chebotarev_reference, splitting_field_model
from chebdens.density import natural_convergence_rows

MODELS = {
    "x^2 + 1 (degree 2)": splitting_field_model((1, 0, 1), 2),
    "x^3 - 2 (splitting field degree 6)": splitting_field_model((-2, 0, 0, 1), 6),
    "x^3 + x^2 - 2x - 1 (cyclic cubic)": splitting_field_model((-1, -2, 1, 1), 3),
}

for name, model in MODELS.items():
    reference = chebotarev_reference(model)
    print(f"\n{name}: reference density = {reference} = {float(reference):.6f}")
    print(f"{'cutoff':>10} {'members':>9} {'primes':>8} {'estimate':>10} {'|gap|':>10}")
    # one sieve and one classification serve every cutoff of the table
    for row in natural_convergence_rows(model, (10**4, 10**5, 10**6), reference=reference):
        gap = abs(row["estimate"] - row["reference"])
        print(f"{row['cutoff']:>10} {row['members']:>9} {row['primes']:>8} "
              f"{row['estimate']:>10.6f} {gap:>10.2e}")
