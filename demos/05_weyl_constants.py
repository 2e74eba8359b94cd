"""
Weyl group constants, tabulated and brute-forced
================================================

Each irreducible type carries a rank d, a Weyl group order w (the product
of the invariant degrees) and a conjugacy-class count c.  For groups small
enough, the enumeration oracle builds the group by a breadth-first search of
the simple reflections and partitions it into classes, confirming the table
entries.
"""

from chebdens import constants_for_group, enumerated_constants, invariant_degrees, parse_type

TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "D5", "G2", "F4", "E6", "E7", "E8")

print(f"{'type':>5} {'d':>3} {'w':>10} {'c':>4}   degrees")
for label in TYPES:
    constants = constants_for_group(label)
    degrees = invariant_degrees(parse_type(label))
    print(f"{label:>5} {constants.d:>3} {constants.w:>10} {constants.c:>4}   {degrees}")

print("\nenumeration oracle (types with w <= 10^6):")
for label in ("A2", "B3", "D4", "G2", "F4"):
    order, classes = enumerated_constants(label)
    constants = constants_for_group(label)
    verdict = "ok" if (order, classes) == (constants.w, constants.c) else "MISMATCH"
    print(f"  {label}: enumerated (w, c) = ({order}, {classes})  table "
          f"({constants.w}, {constants.c})  {verdict}")
