#!/usr/bin/env python3
"""Deciding translatability and certifying it with a witness.

A translation pairs every state with a fixed unit "tablet" state, forms
the entangled combinations Omega_i, and asks for a unitary sending them to
product states.  All of that collapses to one scalar parameter
Q = 2 Re(q) / (1 + |q|^2) and a system of Gram-matrix conditions, so both
the decision and the certificate are concrete linear algebra:

  decision  : eigenvalue signs of the entrywise inverse overlap matrix
  witness   : (Q, tablet, output Gram, unitary), checked numerically
"""

import numpy as np

from qtext import (
    GenSpec,
    Untranslatable,
    check_witness,
    decide_translatable,
    gen_text,
    hadamard_inverse_signature,
    oracle_feasible,
    translate,
    validate_text,
)

np.set_printoptions(precision=4, suppress=True)

print("=== a uniform 3-text ===")
gram = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
t = validate_text(gram)

sig = hadamard_inverse_signature(t)
print("entrywise-inverse eigenvalues:", np.sort(sig.eigenvalues))
print(f"inertia: {sig.n_pos} positive / {sig.n_neg} negative "
      f"/ {sig.n_zero} zero")
d = decide_translatable(t)
print(f"decision: translatable={d.translatable} ({d.reason}), "
      f"Q signs allowed: {sorted(d.sign_constraint)}")

w = translate(t)
print(f"\nwitness: Q = {w.Q:+.4f}")
print("output Gram:")
print(w.output_gram.real)
rep = check_witness(t, w)
# the unitarity defect is the dense max |U^H U - I| below D = SPAN_MIN_DIM
# (here D = 16), and a certified upper bound on it from there on
print(f"verification: passed={rep.passed}  overlap residual={rep.r1:.2e}  "
      f"mapping residual={rep.r3:.2e}  unitarity defect (dense, D = {len(w.unitary)})"
      f"={rep.unitarity:.2e}")

print("\n=== a mixed text: clique core plus a pendant state ===")
gram = np.eye(3)
gram[0, 1] = gram[1, 0] = 0.5
gram[1, 2] = gram[2, 1] = 0.2
t = validate_text(gram)
d = decide_translatable(t)
print(f"decision: {d.reason}; core={list(d.decomposition.core)} "
      f"pendants={d.decomposition.anchors}")
w = translate(t)
rep = check_witness(t, w)
print(f"witness Q = {w.Q:+.4f} (pendants force Q > 0), "
      f"passed={rep.passed}, r1={rep.r1:.2e}")

print("\n=== the smallest untranslatable frontier: 4 states ===")
t4 = gen_text(GenSpec(mode="untranslatable4", seed=0))
sig = hadamard_inverse_signature(t4)
print("gram:")
print(t4.gram)
print(f"inertia ({sig.n_pos}, {sig.n_neg}, {sig.n_zero}): two eigenvalues "
      "of each sign leave no admissible Q")
try:
    translate(t4)
except Untranslatable as exc:
    print(f"translate refused: {exc.decision.reason}")

print("\nindependent cross-check with the random-tablet oracle "
      "(20000 samples):")
probe = oracle_feasible(t4, samples=20000, seed=0)
print(f"feasible point found: {probe.found} "
      f"(best infeasibility {probe.best_penalty:.2e})")

print("\n=== exact cloning of a classical text ===")
t_id = validate_text(np.eye(3))
w0 = translate(t_id, force_sign=0)
rep = check_witness(t_id, w0)
print(f"Q = {w0.Q}, overlap residual = {rep.r1} (exactly zero)")
