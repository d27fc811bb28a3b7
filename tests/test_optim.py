import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prp.optim import (DescentConfig, descend, make_optimizer,
                       minimize_columns_pgd, optimizer_step, project_box,
                       project_columns, project_simplex)

import oracles

vectors = st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=8).map(np.asarray)


def test_interior_point_unchanged():
    v = np.array([0.2, 0.3, 0.5])
    assert np.allclose(project_simplex(v), v, atol=1e-12)


def test_symmetric_negative_point_maps_to_uniform():
    out = project_simplex(np.array([-1.0, -1.0, -1.0]))
    assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3])


def test_projection_matches_grid_search():
    v = np.array([0.9, 0.8, -0.2])
    ours = project_simplex(v)
    brute = oracles.simplex_projection_grid(v, resolution=400)
    assert np.abs(ours - brute).max() < 1e-3


@settings(max_examples=80, deadline=None)
@given(vectors)
def test_projection_lands_on_simplex(v):
    w = project_simplex(v)
    assert w.min() >= 0.0
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(vectors)
def test_projection_is_idempotent(v):
    w = project_simplex(v)
    assert np.allclose(project_simplex(w), w, atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(st.tuples(vectors, vectors).filter(lambda t: len(t[0]) == len(t[1])))
def test_projection_is_nonexpansive(pair):
    u, v = pair
    pu, pv = project_simplex(u), project_simplex(v)
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9


def test_box_projection_clamps():
    assert np.allclose(project_box([2.0, -2.0], -1.0, 1.0), [1.0, -1.0])
    v = np.array([0.5, -0.5])
    assert np.allclose(project_box(v, -1.0, 1.0), v)


def test_box_projection_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    v = rng.normal(size=20) * 3.0
    lo, hi = -1.0, 2.0
    out = project_box(v, lo, hi)
    ref = np.array([min(max(x, lo), hi) for x in v])
    assert np.allclose(out, ref)


def test_column_projection_matches_per_column():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(5, 3))
    totals = np.array([0.2, 0.3, 0.5])
    out = project_columns(m, totals)
    for k in range(3):
        assert np.allclose(out[:, k],
                           oracles.project_column_exact(m[:, k], totals[k]),
                           atol=1e-12)
    # a (B, n, K) stack projects plan by plan, bit for bit; the last plan
    # has a column below the resolution of its largest entry
    stack = rng.normal(size=(4, 5, 3))
    stack[3, :, 0] = [1e20, 0.0, 1e20, -1.0, 2.0]
    out = project_columns(stack, totals)
    for b in range(4):
        assert np.array_equal(out[b], project_columns(stack[b], totals))
    assert np.array_equal(out[3, :, 0], [0.1, 0.0, 0.1, 0.0, 0.0])


def test_simplex_projection_of_stacked_rows_matches_each_row():
    # a (B, n) stack projects row by row, bit for bit, with and without a
    # floor; n up to 30 puts the sums past numpy's 8-term unrolled blocks
    rng = np.random.default_rng(5)
    for n in (1, 3, 7, 12, 30):
        stack = rng.normal(size=(4, n)) * rng.choice([0.01, 1.0, 100.0])
        for floor in (0.0, min(1e-4, 0.1 / n)):
            out = project_simplex(stack, floor=floor)
            for b in range(4):
                assert np.array_equal(out[b],
                                      project_simplex(stack[b], floor=floor))


def test_column_projection_equals_rank_search_on_continuous_inputs():
    # the closed-form threshold max_j (S_j - total) / j picks the same
    # value as the rank search, so the results agree bit for bit
    rng = np.random.default_rng(21)
    for _ in range(10_000):
        n, k = rng.integers(1, 9), rng.integers(1, 6)
        m = rng.normal(size=(n, k)) * rng.choice([0.01, 1.0, 100.0])
        totals = rng.dirichlet(np.ones(k)) * rng.choice([1e-3, 1.0, 10.0])
        assert np.array_equal(project_columns(m, totals),
                              oracles.project_columns_rank_search(m, totals))


def tied_columns(rng, scale):
    n, k = rng.integers(2, 9), rng.integers(1, 6)
    m = rng.integers(-3, 4, size=(n, k)) * scale
    if rng.random() < 0.3:
        m[rng.integers(n)] = m[rng.integers(n)]              # equal rows
    if rng.random() < 0.3:
        m[:, rng.integers(k)] = -np.abs(m[:, rng.integers(k)]) - 1.0
    return m, rng.choice([0.1, 0.25, 1.0], size=k)


def test_column_projection_agrees_with_rank_search_on_ties():
    # exact ties, equal rows and all-negative columns: within an ulp of the
    # total (in fact equal, since the sums of tied entries are exact)
    rng = np.random.default_rng(22)
    for _ in range(3_000):
        m, totals = tied_columns(rng, rng.choice([0.25, 0.5, 1.0]))
        out = project_columns(m, totals)
        ref = oracles.project_columns_rank_search(m, totals)
        assert (np.abs(out - ref) <= np.finfo(float).eps * totals).all()


def test_column_projection_is_exact_to_rounding_on_near_ties():
    # entries like 0.1 and 1/3 make near ties, where the threshold candidates
    # agree only to rounding and neither threshold is exact: each entry is
    # within an ulp per row of the rational projection, as with rank search
    rng = np.random.default_rng(24)
    for _ in range(1_000):
        m, totals = tied_columns(rng, rng.choice([0.1, 1.0 / 3.0]))
        out = project_columns(m, totals)
        for c in range(m.shape[1]):
            exact = oracles.project_column_exact(m[:, c], totals[c])
            ulp = np.finfo(float).eps * max(np.abs(m[:, c]).max(), totals[c])
            assert np.abs(out[:, c] - exact).max() <= m.shape[0] * ulp


def test_total_below_the_resolution_goes_to_the_largest_entries():
    # 1e20 - 1 rounds to 1e20, so the clipped column vanishes in floating
    # point; the projection's limit puts the whole total on the maxima
    m = np.array([[1e20, 3.0], [0.0, 3.0], [1e20, -1.0]])
    out = project_columns(m, np.array([1.0, 0.5]))
    assert np.array_equal(out, [[0.5, 0.25], [0.0, 0.25], [0.5, 0.0]])
    assert np.array_equal(project_simplex([2e20, 1.0]), [1.0, 0.0])


@pytest.mark.parametrize("method", ["adam", "rmsprop", "pgd", "mixed"])
def test_packed_state_with_array_lr_equals_separate_states(method):
    # one state over packed (gamma, atoms) rows, with a method per row in
    # the mixed case, steps each row as separate per-piece states would
    rng = np.random.default_rng(23)
    stacked = method == "mixed"
    names = ["rmsprop", "adam", "pgd", "adam"] if stacked else [method]
    pieces = [[rng.normal(size=(7, 5)), rng.normal(size=(7, 2))]
              for _ in names]
    separate = [(make_optimizer(name, 0.05, gamma),
                 make_optimizer(name, 0.01, atoms))
                for name, (gamma, atoms) in zip(names, pieces)]
    lr = np.repeat([0.05, 0.01], [35, 14])
    packed = np.stack([np.concatenate((gamma.ravel(), atoms.ravel()))
                       for gamma, atoms in pieces])
    both = make_optimizer(names if stacked else method, lr, packed)
    for _ in range(20):
        grads = [[rng.normal(size=(7, 5)), rng.normal(size=(7, 2))]
                 for _ in names]
        for piece, states, grad in zip(pieces, separate, grads):
            for i in range(2):
                piece[i] = optimizer_step(states[i], piece[i], grad[i])
        packed = optimizer_step(
            both, packed, np.stack([np.concatenate((g.ravel(), a.ravel()))
                                    for g, a in grads]))
        assert np.array_equal(packed, np.stack(
            [np.concatenate((gamma.ravel(), atoms.ravel()))
             for gamma, atoms in pieces]))


# the start methods of the stacked-state tests: B = 1, 2 and 3
MIXES = [("adam",), ("rmsprop", "adam"), ("pgd", "adam", "rmsprop")]


@pytest.mark.parametrize("names", MIXES, ids=["-".join(n) for n in MIXES])
def test_stacked_state_equals_per_start_states(names):
    # the state keeps its coefficients at the parameter's full shape; each
    # start still steps bit for bit as a state of its own would, and as the
    # rule written with Python-float coefficients
    rng = np.random.default_rng(len(names))
    shape = (len(names), 7, 5)
    param = rng.normal(size=shape)
    rates = rng.uniform(0.01, 0.1, size=len(names))
    lr = np.broadcast_to(rates[:, None, None], shape).copy()
    stacked = make_optimizer(list(names), lr, param)
    states = [make_optimizer(name, rate, row)
              for name, rate, row in zip(names, rates, param)]
    rows = list(param)
    refs = [(row, np.zeros(shape[1:]), np.zeros(shape[1:])) for row in param]
    for t in range(1, 31):
        grad = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e3])
        param = optimizer_step(stacked, param, grad)
        rows = [optimizer_step(state, row, g)
                for state, row, g in zip(states, rows, grad)]
        refs = [oracles.moment_rule_step(name, p, g, m, v, t, rate)
                for name, rate, (p, m, v), g in zip(names, rates, refs, grad)]
        assert np.array_equal(param, np.stack(rows))
        assert np.array_equal(param, np.stack([p for p, _, _ in refs]))


def test_column_projection_with_full_shape_totals_is_bit_identical():
    # totals given at the plans' shape, as the descent loops pass them,
    # give the bits of the (K,) totals, also on the dead-column path
    rng = np.random.default_rng(25)
    for trial in range(200):
        b, n, k = rng.integers(1, 4), rng.integers(1, 9), rng.integers(1, 6)
        stack = rng.normal(size=(b, n, k)) * rng.choice([0.01, 1.0, 100.0])
        dead = rng.integers(b), rng.integers(k)
        if trial % 4 == 0:
            # a column of equal entries far above its total: the
            # projection vanishes in floating point
            stack[dead[0], :, dead[1]] = 1e20
        totals = rng.dirichlet(np.ones(k)) * rng.choice([1e-3, 1.0, 10.0])
        full = np.broadcast_to(totals, stack.shape).copy()
        out = project_columns(stack, totals)
        assert np.array_equal(project_columns(stack, full), out)
        if trial % 4 == 0:
            assert (out[dead[0], :, dead[1]] == totals[dead[1]] / n).all()


def test_stacked_state_rejects_unknown_methods():
    with pytest.raises(ValueError):
        make_optimizer(["adam", "sgd"], 0.1, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        make_optimizer([], 0.1, np.zeros((0, 3)))


def test_zero_gradient_leaves_parameters_unchanged():
    for method in ("adam", "rmsprop", "pgd"):
        p = np.array([1.0, -2.0])
        state = make_optimizer(method, 0.1, p)
        out = optimizer_step(state, p, np.zeros(2))
        assert np.allclose(out, p)


def test_single_adam_step_matches_reference():
    p = np.array([1.0])
    g = np.array([1.0])
    state = make_optimizer("adam", 0.1, p)
    out = optimizer_step(state, p, g)
    ref, _, _ = oracles.adam_step_reference(p, g, np.zeros(1), np.zeros(1),
                                            t=1, lr=0.1)
    assert np.allclose(out, ref, atol=1e-15)
    assert out[0] == pytest.approx(1.0 - 0.1, abs=1e-8)


def test_multi_step_adam_matches_reference():
    rng = np.random.default_rng(5)
    p = rng.normal(size=4)
    state = make_optimizer("adam", 0.05, p)
    m = np.zeros(4)
    v = np.zeros(4)
    ref = p.copy()
    for t in range(1, 8):
        g = rng.normal(size=4)
        p = optimizer_step(state, p, g)
        ref, m, v = oracles.adam_step_reference(ref, g, m, v, t=t, lr=0.05)
        assert np.allclose(p, ref, atol=1e-14)


def test_rmsprop_step_formula():
    p = np.array([2.0])
    g = np.array([0.5])
    state = make_optimizer("rmsprop", 0.2, p)
    out = optimizer_step(state, p, g)
    expected = 2.0 - 0.2 * 0.5 / (np.sqrt(0.1 * 0.25) + 1e-8)
    assert out[0] == pytest.approx(expected, rel=1e-12)


def test_pgd_step_then_projection_stays_feasible():
    p = project_simplex(np.array([0.4, 0.6]))
    state = make_optimizer("pgd", 0.5, p)
    out = optimizer_step(state, p, np.array([1.0, -1.0]))
    w = project_simplex(out)
    assert w.min() >= 0.0
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_optimizer_trajectories_are_deterministic():
    def run():
        rng = np.random.default_rng(6)
        p = rng.normal(size=3)
        state = make_optimizer("adam", 0.1, p)
        out = []
        for _ in range(5):
            p = optimizer_step(state, p, rng.normal(size=3))
            out.append(p.copy())
        return np.stack(out)

    a, b = run(), run()
    assert (a == b).all()


def test_columnwise_pgd_solves_quadratic():
    # minimize ||gamma - target||^2 over columns summing to totals; the
    # target is interior, since multiplicative steps reach the boundary only
    # in the limit
    rng = np.random.default_rng(8)
    totals = np.array([0.4, 0.6])
    target = rng.dirichlet(np.ones(4), size=2).T * totals

    result = minimize_columns_pgd(
        objective=lambda stack: ((stack - target) ** 2).sum(axis=(-2, -1)),
        gradient=lambda g: 2.0 * (g - target),
        init=np.tile(totals / 4.0, (4, 1)),
        column_totals=totals, lr0=1.0)
    assert result.converged
    assert np.abs(result.x - target).max() < 1e-6
    assert np.abs(result.x.sum(axis=0) - totals).max() < 1e-15


def test_descent_config_defaults():
    config = DescentConfig()
    assert config.lr_weights == pytest.approx(0.05)
    assert config.lr_atoms == pytest.approx(0.01)
    assert not hasattr(config, "unroll_iters")


def _half_square(weights, atoms):
    """1/2 |(w, x)|^2 per start, exactly rounded, and its gradients w, x."""
    values = [0.5 * math.fsum(np.concatenate((w.ravel(), x.ravel())) ** 2)
              for w, x in zip(weights, atoms)]
    return values, weights, atoms


@pytest.mark.parametrize("boxed", [False, True], ids=["free", "box"])
def test_descend_stack_equals_each_start_alone(boxed):
    rng = np.random.default_rng(31)
    configs = [DescentConfig(method=name, steps=12, lr_weights=0.05 * (i + 1),
                             lr_atoms=0.02 * (i + 1))
               for i, name in enumerate(("adam", "rmsprop", "pgd"))]
    weights = project_simplex(rng.uniform(size=(3, 4)))
    atoms = rng.normal(scale=2.0, size=(3, 3, 2))
    edges = (-0.5, 0.5)
    box = (tuple(np.full(atoms.shape, edge) for edge in edges) if boxed
           else None)
    stacked = descend(weights, atoms, configs, _half_square, project_simplex,
                      box)
    assert stacked[2].shape == (3, 12)
    for i, config in enumerate(configs):
        alone = descend(weights[i:i + 1], atoms[i:i + 1], [config],
                        _half_square, project_simplex,
                        None if box is None
                        else tuple(edge[i:i + 1] for edge in box))
        for out, ref in zip(stacked, alone):
            assert np.array_equal(out[i], ref[0])
        # the loop written out, one optimizer state per piece
        w, x = weights[i], atoms[i]
        w_state = make_optimizer(config.method, config.lr_weights, w)
        x_state = make_optimizer(config.method, config.lr_atoms, x)
        trace = []
        for _ in range(config.steps):
            trace.append(_half_square([w], [x])[0][0])
            w = project_simplex(optimizer_step(w_state, w, w))
            x = optimizer_step(x_state, x, x)
            if boxed:
                x = project_box(x, *edges)
        assert np.array_equal(stacked[0][i], w)
        assert np.array_equal(stacked[1][i], x)
        assert np.array_equal(stacked[2][i], trace)
    if boxed:
        # the start atoms lie outside the box, so the clamp is exercised
        assert np.abs(atoms).max() > 0.5
        assert np.abs(stacked[1]).max() <= 0.5


def test_descend_needs_starts_that_share_one_or_more_steps():
    weights, atoms = np.full((2, 3), 1.0 / 3.0), np.zeros((2, 2, 1))
    args = (_half_square, project_simplex)
    shared = "^need one or more starts that share their steps$"
    with pytest.raises(ValueError, match=shared):
        descend(weights, atoms, [DescentConfig(steps=3),
                                 DescentConfig(steps=4)], *args)
    with pytest.raises(ValueError, match=shared):
        descend(weights[:0], atoms[:0], [], *args)
    with pytest.raises(ValueError, match="^need at least one descent step$"):
        descend(weights, atoms, [DescentConfig(steps=0)] * 2, *args)
