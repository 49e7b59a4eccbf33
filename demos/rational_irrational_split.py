"""
Splitting closed forms and reading off cohomology
=================================================

A closed form over F_p decomposes as omega = omega_R + omega_I where the
rational part omega_R is exact and the irrational part omega_I is the
image of the projector Q_r.  The irrational part is the canonical
representative of the de Rham class, so two closed forms lie in the same
class exactly when their difference is p-closed.
"""

import random

from fpforms import (
    class_representative,
    integrate,
    irrational_part,
    is_p_closed,
    parse_form,
    same_class,
    split_rational_irrational,
)
from fpforms.sampling import random_closed_form, random_exact_form

p, n = 3, 2

omega = parse_form("(x^2*y^3 + x) dx", p, n)
split = split_rational_irrational(omega)
print("omega      =", omega)
print("rational   =", split.rational)
print("irrational =", split.irrational)
assert split.rational + split.irrational == omega

# the rational part integrates; the irrational part is the obstruction
theta = integrate(split.rational)
print("potential  =", theta)
assert theta.d() == split.rational
assert not is_p_closed(split.irrational) or split.irrational.is_zero()

# Q_r is idempotent: splitting the irrational part returns it unchanged
assert irrational_part(split.irrational) == split.irrational

# the class representative witnesses its own correctness
print()
wit = class_representative(omega)
print("representative       =", wit.representative)
print("difference p-closed? ", wit.difference_p_closed)

# perturbing by an exact form never moves the class
rng = random.Random(7)
moved = 0
for _ in range(50):
    noise = random_exact_form(rng, p, n, 1, max_degree=3)
    assert same_class(omega, omega + noise)
    closed = random_closed_form(rng, p, n, 1)
    if not same_class(omega, omega + closed):
        moved += 1
print()
print("50 exact perturbations: class unchanged")
print("closed perturbations moving the class:", moved, "of 50")
