"""RV605 seeded mutation: an uncontracted row-range boundary crossing.

``reduce_born_flat`` is a boundary callee (range-filled Born arrays from
workers or donees land in it); defining it without an
``@array_contract`` stamp and calling it must be reported.
"""


def reduce_born_flat(plan, atoms, far_flat, near_flat):
    return far_flat


def reduce(plan, atoms, far_flat, near_flat):
    return reduce_born_flat(plan, atoms, far_flat, near_flat)  # (RV605)
