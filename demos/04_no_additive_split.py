"""Why the dual coding is needed: the min profile has no column+row split.

A matrix splits into one-value-per-row plus one-value-per-column exactly when
all its 2x2 minors have equal cross sums.  The profile that the odd-position
minimisation constraint shows to its two flanking collections fails that test
at the very first minor, so no single-code encoding could express it with two
narrower constraints; coding the intermediate with both 00 and 11 is what
makes the arity-5 split work.
"""

from ascentlab import rank1_split
from ascentlab.constructions import ODD_MIN

# Rows are the left flank's states A, B, C; columns the right flank's.
profile = ODD_MIN
print("minimisation profile seen by the flanks:")
for row in profile:
    print("   ", row)

result = rank1_split(profile)
(i1, j1), (i2, j2) = result.minor
print(f"split feasible: {result.feasible}")
print(f"violating minor at rows {i1 + 1},{i2 + 1} / columns {j1 + 1},{j2 + 1}: "
      f"{profile[i1][j1]} + {profile[i2][j2]} = {result.lhs} "
      f"but {profile[i1][j2]} + {profile[i2][j1]} = {result.rhs}")

print()
control = ((0, 1), (1, 2))
split = rank1_split(control)
print(f"control matrix {control} splits: column {split.column} + row {split.row}")
