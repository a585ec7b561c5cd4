"""Invariants that should hold over whole families of inputs.

A couple of hypothesis properties for the scalar algebra, plus seeded
random sweeps for the matrix-level identities (hypothesis is a poor fit
for generating valid Gram matrices, so those loops draw from
numpy's generator directly).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtext import (
    GenSpec,
    Q_from_q,
    check_witness,
    decide_translatable,
    decide_zero_translatable,
    embed_text,
    gen_text,
    graph_of_text,
    hadamard_inverse_signature,
    q_from_Q,
    recognize,
    restrict_witness,
    subtext,
    translate,
    validate_text,
)
from qtext.classify import BorderlineSignature, HasOrthogonalPair
from qtext.graphs import GraphClass, induced_subgraph
from qtext.translation import build_omega, tablet_overlaps


def random_text(rng, n, complex_entries=False):
    """Efficient random text from normalized Gaussian state vectors."""
    dim = n + 2
    V = rng.normal(size=(n, dim))
    if complex_entries:
        V = V + 1j * rng.normal(size=(n, dim))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return validate_text(V @ V.conj().T)


@given(st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_q_round_trip(Q):
    q = q_from_Q(Q)
    assert abs(Q_from_q(q) - Q) <= 1e-12
    # canonical branch keeps q real with |q| <= 1
    assert abs(q.imag) == 0.0 and abs(q) <= 1.0 + 1e-12


@given(st.floats(min_value=-0.999, max_value=0.999),
       st.floats(min_value=0.0, max_value=2.0 * np.pi))
@settings(max_examples=200, deadline=None)
def test_q_class_shares_Q(Q, theta):
    # every member q' = e^{i phi} rescaling ... the whole circle of q with
    # the same 2 Re q / (1 + |q|^2) maps back to Q
    q = q_from_Q(Q)
    if abs(q) < 1e-12:
        return
    phi = np.arccos(np.clip(Q * (1 + abs(q) ** 2) / (2 * abs(q)), -1, 1))
    q_alt = abs(q) * np.exp(1j * phi)
    assert abs(Q_from_q(q_alt) - Q) <= 1e-9


def test_omega_gram_identity_random():
    # <Omega_i|Omega_j> must equal (z_ij + Q a_i conj(a_j)) / sqrt(B_i B_j)
    # for arbitrary tablets, including complex ones
    rng = np.random.default_rng(7)
    for trial in range(40):
        n = int(rng.integers(2, 6))
        t = random_text(rng, n, complex_entries=bool(trial % 2))
        emb = embed_text(t, pad_extra_dim=True)
        tab = rng.normal(size=emb.dim) + 1j * rng.normal(size=emb.dim)
        tab /= np.linalg.norm(tab)
        Q = float(rng.uniform(-0.95, 0.95))
        omegas = build_omega(emb, tab, q_from_Q(Q))
        a = tablet_overlaps(emb, tab)
        B = 1.0 + Q * np.abs(a) ** 2
        expected = (t.gram + Q * np.outer(a, a.conj())) / np.sqrt(np.outer(B, B))
        got = omegas.conj().T @ omegas
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_signature_has_positive_eigenvalue():
    # trace of the entrywise inverse is n, so n_pos >= 1 always
    rng = np.random.default_rng(11)
    seen_indefinite = 0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        t = random_text(rng, n)
        try:
            sig = hadamard_inverse_signature(t)
        except (HasOrthogonalPair, BorderlineSignature):
            continue
        assert sig.n_pos >= 1
        assert sig.n_pos + sig.n_neg + sig.n_zero == n
        if sig.n_neg >= 1:
            seen_indefinite += 1
        # the sign rule, restated from the admissible set
        assert (-1 in sig.admissible_signs) == (sig.n_pos == 1)
        assert (+1 in sig.admissible_signs) == (sig.n_neg == 1)
    assert seen_indefinite > 10


def test_decision_invariant_under_relabeling():
    rng = np.random.default_rng(3)
    for seed in range(12):
        t = gen_text(GenSpec(mode="random_efficient", n=4, seed=seed))
        d = decide_translatable(t)
        perm = rng.permutation(4)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        g2 = (phases[:, None] * t.gram * phases.conj()[None, :])[
            np.ix_(perm, perm)]
        d2 = decide_translatable(validate_text(g2))
        assert d2.translatable == d.translatable
        assert d2.reason == d.reason
        assert d2.sign_constraint == d.sign_constraint


def test_zero_rigidity():
    # Q = 0 only ever clones orthogonal families
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = random_text(rng, int(rng.integers(2, 6)))
        d = decide_zero_translatable(t)
        edges = graph_of_text(t).edges
        assert d.translatable == (len(edges) == 0)


def test_well_split_hereditary_random():
    from qtext.graphs import SimpleGraph
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(3, 8))
        edges = frozenset(
            (i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.45)
        g = SimpleGraph(n=n, edges=edges)
        if recognize(g).klass != GraphClass.WELL_SPLIT:
            continue
        checked += 1
        for _ in range(4):
            k = int(rng.integers(2, n + 1))
            keep = sorted(rng.choice(n, size=k, replace=False).tolist())
            sub, _ = induced_subgraph(g, keep)
            # edgeless subsets drop to Independent; nothing may turn bad
            assert recognize(sub).klass in (GraphClass.WELL_SPLIT,
                                            GraphClass.INDEPENDENT)
    assert checked > 5


def test_witness_restricts_to_every_subset():
    # translatability is hereditary and the same witness data certifies it
    for seed in (0, 4, 9):
        t = gen_text(GenSpec(mode="random_efficient", n=3, seed=seed))
        d = decide_translatable(t)
        if not d.translatable:
            continue
        w = translate(t)
        for keep in ([0], [2], [0, 1], [0, 2], [1, 2], [2, 0]):
            ts = subtext(t, keep)
            ws = restrict_witness(t, w, keep)
            rep = check_witness(ts, ws)
            assert rep.passed, (seed, keep, rep)


def test_translated_outputs_are_valid_texts():
    # output Grams from successful translations are themselves texts
    # whenever the outputs stay pairwise distinct
    from qtext.texts import DuplicateStates
    for seed in range(6):
        t = gen_text(GenSpec(mode="random_efficient", n=3, seed=seed))
        if not decide_translatable(t).translatable:
            continue
        w = translate(t)
        try:
            out = validate_text(w.output_gram)
        except DuplicateStates:
            continue
        assert out.n == t.n
