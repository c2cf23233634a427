"""Relabelling an instance's variables, so a test can run an ascent in any order.

`ordered_ascent`, `pad` and `ExpandedLandscape` take the ascent order to be
the variable-id order.  An ascent of `instance` in the order `order` is the
identity-order ascent of `relabel(instance, order)`, started from
`tuple(start[k] for k in order)`; its step on variable i moves variable
`order[i]` of `instance`.
"""

from __future__ import annotations

from typing import Sequence

from ascentlab import ValuedConstraint, VcspInstance


def relabel(instance: VcspInstance, order: Sequence[int]) -> VcspInstance:
    """`instance` with variable i renamed to the position of i in `order`,
    so that variable i of the result is variable `order[i]` of `instance`."""
    at = {k: i for i, k in enumerate(order)}
    return VcspInstance(
        tuple(instance.domains[k] for k in order),
        tuple(
            ValuedConstraint(tuple(at[v] for v in c.scope), c.values, c.label)
            for c in instance.constraints
        ),
    )
