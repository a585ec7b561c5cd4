"""Shared fixtures: small hand-built texts used across the suite, the
pendant-attachment referee, and a call counter for qtext functions."""

import functools
import sys

import numpy as np
import pytest

from qtext import (
    SynthError,
    Text,
    TranslationError,
    TranslationWitness,
    build_omega,
    subtext,
    tablet_overlaps,
    validate_text,
    witness_from_overlaps,
)
from qtext.synth import _pendant_rows
from qtext.texts import _orthogonal
from qtext.translation import _embedding_for_tablet


def uniform_gram(n, z):
    return np.full((n, n), z, dtype=complex) + (1.0 - z) * np.eye(n)


def near_zero_gram(n, rng):
    """Seeded valid n x n Gram matrix whose off-diagonal entries are exact
    zeros, +-1e-9 (ZERO_TOL exactly, real or imaginary), 1e-9 scaled by a
    unit phase, values just above 1e-9, or complex and real entries of
    modulus up to 0.4 / n (diagonally dominant, so positive definite)."""
    iu = np.triu_indices(n, 1)
    m = iu[0].size
    kind = rng.integers(0, 6, size=m)
    phase = np.exp(2j * np.pi * rng.uniform(size=m))
    big = 0.4 / n * rng.uniform(size=m) * phase
    vals = np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3, kind == 4],
        [0.0, rng.choice([1e-9, -1e-9, 1e-9j, -1e-9j], size=m),
         1e-9 * phase, 1e-9 * (1.0 + 1e-6 * rng.uniform(size=m)), big],
        default=big.real)
    g = np.eye(n, dtype=complex)
    g[iu] = vals
    g[iu[1], iu[0]] = vals.conj()
    return g


def off_frame_stretch(t, w):
    """Copy of a finished witness with unitary U' = U + 0.5 U (I - P P^H),
    P an orthonormal basis of the frame span: U' maps every frame state as
    U does, but is not unitary (max |U'^H U' - I| = 1.25)."""
    omega = build_omega(_embedding_for_tablet(t, len(w.tablet)), w.tablet, w.q)
    P = np.linalg.svd(omega, full_matrices=False)[0]
    U = np.asarray(w.unitary)
    stretched = U + 0.5 * U @ (np.eye(len(U)) - P @ P.conj().T)
    return TranslationWitness(Q=w.Q, q=w.q, tablet=w.tablet,
                              output_gram=w.output_gram, unitary=stretched)


# The paper's pendant chain, one attachment at a time, with its own two
# refusals: the referee of the closed form in synth._mixed_witness.
class QTooLarge(SynthError):
    pass


class BadOverlapPattern(SynthError):
    pass


def attach_classical(base_witness: TranslationWitness, t_new: Text) -> TranslationWitness:
    """Extend a witness on t_new without its last state to t_new; that state
    phi must overlap exactly one earlier state, the anchor.

    The new tablet is alpha * psi_0 + beta * (phi - P phi), with alpha fixed
    by unit norm and beta by <phi|psi_0'> = 0: alpha times the old overlaps
    and 0 with phi, with rho = |phi - P phi| > 0.  Q grows to Q / alpha^2,
    which must stay <= 1, and every B_i stays.
    """
    n = t_new.n - 1
    nz = np.flatnonzero(~_orthogonal(t_new.gram[n, :n])).tolist()
    if len(nz) != 1:
        raise BadOverlapPattern(
            f"new state must overlap exactly one state; nonzero at {nz}")
    Q = base_witness.Q
    if not Q > 0:
        raise SynthError("attachment requires a base witness with Q > 0")
    base = subtext(t_new, range(n))
    o = tablet_overlaps(_embedding_for_tablet(base, len(base_witness.tablet)),
                        np.asarray(base_witness.tablet, dtype=complex))
    zn = t_new.gram[:n, n]
    c = np.linalg.solve(base.gram, np.column_stack([o, zn]))
    if 1.0 - float(np.real(np.vdot(zn, c[:, 1]))) <= 1e-12:
        raise TranslationError("new state lies in the span of the base text")
    # 1 / alpha^2 = 1 + |<phi|P psi_0>|^2 / rho^2, growth of the span part
    s2_old = min(1.0, float(np.real(np.vdot(o, c[:, 0]))))
    o = np.append(o, 0.0)
    alpha2 = 1.0 / (1.0 + float(np.real(np.vdot(o, np.linalg.solve(t_new.gram, o)))) - s2_old)
    if Q / alpha2 > 1.0 + 1e-12:
        raise QTooLarge(f"Q grows to {Q / alpha2:.6f} > 1 at this attachment")
    Y0 = np.eye(n + 1, dtype=complex)
    Y0[:n, :n] = base_witness.output_gram
    Y = _pendant_rows(Y0, {n: nz[0]}, 1.0 + Q * np.abs(o) ** 2)
    return witness_from_overlaps(t_new, min(Q / alpha2, 1.0), np.sqrt(alpha2) * o, Y)


@pytest.fixture
def uniform3():
    # all pairwise overlaps 1/2
    return validate_text(uniform_gram(3, 0.5))


@pytest.fixture
def path3():
    # chain 0-1-2 with the ends orthogonal
    g = np.array([[1.0, 0.5, 0.0],
                  [0.5, 1.0, 0.2],
                  [0.0, 0.2, 1.0]], dtype=complex)
    return validate_text(g)


@pytest.fixture
def two_k2():
    # two disjoint overlapping pairs
    g = np.eye(4, dtype=complex)
    g[0, 1] = g[1, 0] = 0.5
    g[2, 3] = g[3, 2] = 0.5
    return validate_text(g)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn, *namespaces) rebinds a counting wrapper of `fn` under
    every name a loaded qtext module binds it to, so calls from inside the
    package are seen too, and under its own name in each of `namespaces`
    (say, np.linalg for a numpy function called by attribute).  It returns
    the list of argument tuples its calls append to; a call with keyword
    arguments appends them as a trailing dict.  The original bindings come
    back at teardown."""

    def install(fn, *namespaces):
        calls = []

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            calls.append((*args, kwargs) if kwargs else args)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "qtext" or name.startswith("qtext."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counting)
        for namespace in namespaces:
            monkeypatch.setattr(namespace, fn.__name__, counting)
        return calls

    return install
