"""Executable invariant suites, one per module.

Each suite returns a list of `CheckResult`s; the command-line `verify`
subcommand prints one line per check and fails (exit code 3) naming the
first violated invariant. This module is the one statement of the
paper-level invariants: the test suite runs every suite once through
`run_suite`, and the acceptance criteria 01-09 pass when the invariants
they name hold.

Tolerances are fixed here, not configurable: they are part of the
contract being verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .attention import attend
from .costmodel import (
    DEVICE_PRESETS, DeviceProfile, WorkloadSpec, fusion_decode_overhead_fraction, roofline_latency, table1_costs,
)
from .model import ModelConfig, _merge_project, _project_heads, build_model
from .rope import RopeSchedule, apply_rope, expand_pairs, fused_key_score, score_decomposed, score_direct
from .sharing import (
    STRATEGY_NAMES,
    LayerCache,
    folded_cache,
    init_equivalent,
    init_normal,
    iterative_reconstruct,
    plan_for_strategy,
    reconstruct,
    sample_iterative_weights,
)
from .tensor import FD_DTYPE, Tape, Tensor, grad_check, masked_softmax, matmul, rmsnorm, swiglu

__all__ = [
    "CheckResult",
    "SUITES",
    "toy_config",
    "run_suite",
    "run_suites",
    # pinned regression case for the asymmetric-weight counterexample
    "COUNTEREXAMPLE",
]

@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.suite}.{self.name}{detail}"


def toy_config(strategy: str, **overrides) -> ModelConfig:
    """Four-layer d_model=16 configuration used by the gradient oracles.

    The init std is deliberately large: with 0.02-scale weights, deep-path
    gradients fall to ~1e-9 where the central-difference oracle is pure
    roundoff noise at any legal step size.
    """
    kv = 1 if strategy == "GQA" else 2
    base = dict(
        n_layers=4,
        d_model=16,
        n_query_heads=2,
        n_kv_heads=kv,
        vocab_size=7,
        max_seq_len=16,
        strategy=strategy,
        d_ff=4,
        init_std=0.35,
    )
    base.update(overrides)
    return ModelConfig(**base)


# Found by randomized search over (q, k, m, n, shift) with the maximally
# asymmetric weight [1, 0, ...] at head_dim 8, base 10000; frozen as a
# regression case. The shifted score differs by ~4.79.
COUNTEREXAMPLE = {
    "q": np.array([0.421786, -2.642141, -1.043419, 0.084084, 0.820223, -1.03745, -0.790452, 1.728506]),
    "k": np.array([-2.563341, -0.340479, -0.684086, -0.41827, -0.367597, 0.639933, 0.953276, 3.089746]),
    "m": 6,
    "n": 5,
    "shift": 4,
    "min_deviation": 1e-3,
}


def _result(suite: str, name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(suite, name, bool(passed), detail)


# -- numerics ----------------------------------------------------------------


def _causal(s: int) -> np.ndarray:
    """The causal mask of s query rows over s key rows: row r allows columns <= r."""
    return np.tril(np.ones((s, s), dtype=bool))


def _fd_oracle() -> str:
    """The dtype `grad_check`'s finite differences run in, for the details of the FD checks."""
    eps = np.finfo(FD_DTYPE).eps
    note = "" if eps < np.finfo(np.float64).eps else ", no wider than float64: the float64 oracle"
    return f"FD in longdouble ({FD_DTYPE.name}, eps {eps:.1e}{note})"


def _numerics_checks() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(11)

    # Backward of every registered op against the central-difference oracle.
    cases: list[tuple[str, Callable[[], Tensor], list[Tensor]]] = []
    a = Tensor(rng.standard_normal((4, 5)))
    b = Tensor(rng.standard_normal((5, 3)))
    cases.append(("matmul", lambda: matmul(a, b).sum(), [a, b]))
    # The model's shape: an activation [B, s, d] times a 2-D weight, one GEMM over all rows.
    mrng = np.random.default_rng(13)
    act, w2 = Tensor(mrng.standard_normal((2, 3, 5))), Tensor(mrng.standard_normal((5, 4)))
    mprobe = mrng.standard_normal((2, 3, 4))
    cases.append(("matmul_rows", lambda: (matmul(act, w2) * mprobe).sum(), [act, w2]))
    # The attention projections: x · W written head-major (2 heads of 3), and
    # [B, H, T, D] read token-major times W_o plus the residual; the MLP's
    # down-projection plus the residual.
    hx, hw, ho, hwo, res = (Tensor(mrng.standard_normal(s)) for s in ((2, 3, 5), (5, 6), (2, 2, 3, 3), (6, 4), (2, 3, 4)))
    hprobe = mrng.standard_normal((2, 2, 3, 3))
    cases.append(("project_heads", lambda: (_project_heads(hx, hw, 2) * hprobe).sum(), [hx, hw]))
    cases.append(("merge_project", lambda: (_merge_project(res, ho, hwo) * mprobe).sum(), [res, ho, hwo]))
    cases.append(("mlp_down_project", lambda: (_merge_project(res, act, w2) * mprobe).sum(), [res, act, w2]))
    sc = Tensor(rng.standard_normal((6, 6)))
    weight = Tensor(rng.standard_normal((6, 6)))
    cases.append(("softmax_causal", lambda: (masked_softmax(sc, _causal(6), 0.7) * weight).sum(), [sc]))
    x = Tensor(rng.standard_normal((3, 8)))
    gain = Tensor(rng.standard_normal(8))
    cases.append(("rmsnorm", lambda: (rmsnorm(x, gain) * rmsnorm(x, gain)).sum(), [x, gain]))
    y = Tensor(rng.standard_normal((4, 10)))
    cases.append(("swiglu", lambda: (swiglu(y) * swiglu(y)).sum(), [y]))
    r = Tensor(rng.standard_normal((2, 5, 8)))
    sched = RopeSchedule(8)
    pos = np.array([0, 3, 1, 7, 2])
    cases.append(("rope", lambda: (apply_rope(r, pos, sched) * apply_rope(r, pos, sched)).sum(), [r]))
    # The attention op at a prefill chunk's shape (3 query rows, 6 cache rows,
    # 2 query heads per kv head), and one FusedKV row with its fusion weights.
    arng = np.random.default_rng(12)
    kv = [Tensor(arng.standard_normal((2, 6, 4))) for _ in range(6)]
    cq, probe = Tensor(arng.standard_normal((4, 3, 4))), arng.standard_normal((4, 3, 4))
    cases.append(("attend_chunk", lambda: (attend(cq, LayerCache.stored(kv[0], kv[1], 1)) * probe).sum(), [cq, *kv[:2]]))
    plan, fq = plan_for_strategy("FusedKV", 3, 2), Tensor(arng.standard_normal((4, 1, 4)))
    fusion, stored = init_normal(plan, 4, arng), {1: LayerCache.stored(kv[2], kv[3], 1), 2: LayerCache.stored(kv[4], kv[5], 2)}
    cases.append(("attend_fused_row", lambda: (attend(fq, folded_cache(plan, fusion, stored, 3)) * probe[:, :1]).sum(),
                  [fq, *kv[2:], *fusion.values()]))
    errors = {name: grad_check(f, params) for name, f, params in cases}
    worst = max(errors, key=errors.get)
    over = [name for name, err in errors.items() if not err < 1e-4]
    detail = f"max rel err {errors[worst]:.2e} ({worst}); over 1e-4: {', '.join(over) or 'none'}; {_fd_oracle()}"
    out.append(_result("numerics", "op_backward_matches_fd", not over, detail))

    # Causal normalization: exactly lower-triangular, unit row sums.
    p = masked_softmax(Tensor(rng.standard_normal((9, 9))), _causal(9), 0.5).numpy()
    tri_ok = np.all(p[np.triu_indices(9, 1)] == 0.0)
    row_dev = np.abs(p.sum(axis=1) - 1.0).max()
    out.append(
        _result("numerics", "softmax_causal_triangular_unit_rows", tri_ok and row_dev <= 1e-12, f"row dev {row_dev:.2e}")
    )

    # Tape replay determinism: bit-identical gradients on two runs.
    def run_once():
        t = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0)
        w = Tensor(rng0.standard_normal((4, 2)))
        with Tape() as tape:
            tape.watch(t), tape.watch(w)
            loss = masked_softmax(matmul(matmul(t, w), matmul(t, w).sum() * Tensor(np.ones((2, 3)))), _causal(3), 1.0).sum()
            tape.backward(loss)
            return tape.grad(t), tape.grad(w)

    rng0 = np.random.default_rng(5)
    g1 = run_once()
    rng0 = np.random.default_rng(5)
    g2 = run_once()
    identical = all(np.array_equal(x, y) for x, y in zip(g1, g2))
    out.append(_result("numerics", "tape_replay_deterministic", identical))
    return out


# -- rope ----------------------------------------------------------------------


def _rope_checks() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(21)
    sched = RopeSchedule(8)

    worst = 0.0
    for _ in range(1000):
        q, k, w = rng.standard_normal(8), rng.standard_normal(8), rng.standard_normal(8)
        m, n = (int(v) for v in rng.integers(0, 1000, size=2))
        worst = max(worst, abs(score_direct(q, k, m, n, w, sched) - score_decomposed(q, k, m, n, w, sched)))
    out.append(_result("rope", "decomposition_identity", worst < 1e-10, f"max |direct - decomposed| {worst:.2e}"))

    worst = 0.0
    for _ in range(500):
        q, k = rng.standard_normal(8), rng.standard_normal(8)
        w = np.repeat(rng.standard_normal(4), 2)
        m, n, d = int(rng.integers(0, 200)), int(rng.integers(0, 200)), int(rng.integers(0, 100))
        worst = max(worst, abs(score_direct(q, k, m, n, w, sched) - score_direct(q, k, m + d, n + d, w, sched)))
    out.append(_result("rope", "symmetric_weights_shift_invariant", worst < 1e-10, f"max shift dev {worst:.2e}"))

    # Pinned counterexample plus a fresh search per asymmetric pattern.
    ce = COUNTEREXAMPLE
    w_asym = np.zeros(8)
    w_asym[0] = 1.0
    pinned = abs(
        score_direct(ce["q"], ce["k"], ce["m"], ce["n"], w_asym, sched)
        - score_direct(ce["q"], ce["k"], ce["m"] + ce["shift"], ce["n"] + ce["shift"], w_asym, sched)
    )
    found = 0
    for pair in range(4):
        w = np.ones(8)
        w[2 * pair] += 1.0  # break symmetry in one pair
        best = 0.0
        for _ in range(200):
            q, k = rng.standard_normal(8), rng.standard_normal(8)
            m, n, d = int(rng.integers(0, 20)), int(rng.integers(0, 20)), int(rng.integers(1, 10))
            best = max(best, abs(score_direct(q, k, m, n, w, sched) - score_direct(q, k, m + d, n + d, w, sched)))
        found += best > 1e-3
    out.append(
        _result(
            "rope",
            "asymmetric_weights_break_shift_invariance",
            pinned > ce["min_deviation"] and found == 4,
            f"pinned dev {pinned:.3f}, {found}/4 patterns broken",
        )
    )

    worst = 0.0
    for _ in range(300):
        n_src = int(rng.integers(1, 4))
        keys = [rng.standard_normal(8) for _ in range(n_src)]
        weights = [rng.standard_normal(4) for _ in range(n_src)]
        q = rng.standard_normal(8)
        m, n = int(rng.integers(0, 60)), int(rng.integers(0, 60))
        fused = fused_key_score(q, keys, (m, n), weights, sched)
        summed = sum(
            score_direct(q, keys[i], m, n, np.repeat(weights[i], 2), sched)
            for i in range(n_src)
        )
        worst = max(worst, abs(fused - summed))
        shifted = fused_key_score(q, keys, (m + 9, n + 9), weights, sched)
        worst_shift = abs(fused - shifted)
        if worst_shift > 1e-10:
            worst = max(worst, 1.0)
    out.append(_result("rope", "fused_key_linearity", worst < 1e-12, f"max dev {worst:.2e}"))

    # Fusing already-rotated keys equals rotating the weighted raw sum.
    worst = 0.0
    for _ in range(200):
        keys = [rng.standard_normal((1, 8)) for _ in range(3)]
        weights = [np.repeat(rng.standard_normal(4), 2) for _ in range(3)]
        n = int(rng.integers(0, 80))
        post = sum(
            w * apply_rope(Tensor(k), np.array([n]), sched).numpy() for w, k in zip(weights, keys)
        )
        pre = apply_rope(
            Tensor(sum(w * k for w, k in zip(weights, keys))), np.array([n]), sched
        ).numpy()
        worst = max(worst, np.abs(post - pre).max())
    out.append(_result("rope", "post_rotation_fusion_equivalence", worst < 1e-10, f"max dev {worst:.2e}"))

    # Rotation preserves the norm of every 2-D pair.
    v = rng.standard_normal((6, 8))
    rot = apply_rope(Tensor(v), np.arange(6) * 7, sched).numpy()
    norms_in = np.sqrt(v[:, 0::2] ** 2 + v[:, 1::2] ** 2)
    norms_out = np.sqrt(rot[:, 0::2] ** 2 + rot[:, 1::2] ** 2)
    dev = np.abs(norms_in - norms_out).max()
    out.append(_result("rope", "pair_norms_preserved", dev <= 1e-12, f"max dev {dev:.2e}"))
    return out


# -- sharing -------------------------------------------------------------------


def _random_caches(rng, layers, shape=(2, 5, 8)) -> dict:
    return {
        j: LayerCache.stored(Tensor(rng.standard_normal(shape)), Tensor(rng.standard_normal(shape)), j)
        for j in layers
    }


def _sharing_checks() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(31)

    # Every catalog plan constructs and reads only storage caches.
    ok = True
    for strategy in STRATEGY_NAMES + ("value1key3",):
        plan = plan_for_strategy(strategy, 8)
        storage = set(plan.storage_layers)
        for i in plan.reconstruction_layers:
            ok &= set(plan.rules[i].sources) <= storage
    out.append(_result("sharing", "plans_acyclic_sources_stored", ok))

    # One-hot fusion weights reproduce direct reuse exactly.
    plan = plan_for_strategy("FusedKV", 4, 2)
    stored = _random_caches(rng, (1, 2))
    hot = {f"fusion.key.{i}.{j}": Tensor(np.full(4, 1.0 if j == 2 else 0.0)) for i in (3, 4) for j in (1, 2)}
    hot.update({f"fusion.value.{i}.{j}": Tensor(np.full(8, 1.0 if j == 1 else 0.0)) for i in (3, 4) for j in (1, 2)})
    k3, v3 = reconstruct(plan, hot, stored, 3)
    selector_ok = np.array_equal(k3.numpy(), stored[2].keys.numpy()) and np.array_equal(
        v3.numpy(), stored[1].values.numpy()
    )
    out.append(_result("sharing", "one_hot_fusion_equals_direct_reuse", selector_ok))

    # Chain-form and collapsed weights agree on random caches.
    plan6 = plan_for_strategy("FusedKV", 6, 3)
    worst = 0.0
    for trial in range(100):
        aux = sample_iterative_weights(plan6, 8, rng)
        weights = init_equivalent(plan6, aux)
        stored = _random_caches(rng, (1, 2, 3))
        chain = iterative_reconstruct(plan6, aux, stored)
        for i in plan6.reconstruction_layers:
            k_std, v_std = reconstruct(plan6, weights, stored, i)
            worst = max(
                worst,
                np.abs(k_std.numpy() - chain[i][0].numpy()).max(),
                np.abs(v_std.numpy() - chain[i][1].numpy()).max(),
            )
    out.append(_result("sharing", "equivalent_init_matches_iterative", worst < 1e-12, f"max dev {worst:.2e}"))

    # Normal init: determinism, moments, exact pair duplication.
    w1 = init_normal(plan6, 8, 123)
    w2 = init_normal(plan6, 8, 123)
    same = list(w1) == list(w2) and all(np.array_equal(w1[name].numpy(), t.numpy()) for name, t in w2.items())
    big_plan = plan_for_strategy("FusedKV", 2084, 1042)
    draws = np.concatenate(
        [t.numpy().ravel() for t in init_normal(big_plan, 32, 7).values()]
    )
    moments_ok = abs(draws.mean()) < 0.02 and abs(draws.var() - 1.0) < 0.05 and draws.size >= 100_000
    expanded = expand_pairs(w1["fusion.key.4.1"]).numpy()
    pairs_ok = np.array_equal(expanded[0::2], expanded[1::2])
    out.append(
        _result(
            "sharing",
            "normal_init_deterministic_standard_moments",
            same and moments_ok and pairs_ok,
            f"{draws.size} draws, mean {draws.mean():+.4f}, var {draws.var():.4f}",
        )
    )

    # Gradients reach fusion weights and match the oracle.
    model = build_model(toy_config("FusedKV"), seed=3)
    tokens = np.random.default_rng(9).integers(0, 7, size=(1, 5))
    fusion_params = [p for name, p in model.parameters() if name.startswith("fusion.")]
    err = grad_check(lambda: model.forward_loss(tokens), fusion_params)
    out.append(_result("sharing", "fusion_weight_gradients_match_fd", err < 1e-4, f"rel err {err:.2e}; {_fd_oracle()}"))

    # Memory accounting: persistent caches == storage layers; half for L/2 plans.
    ok = True
    details = []
    for strategy in STRATEGY_NAMES:
        cfg = ModelConfig(
            n_layers=8,
            d_model=32,
            n_query_heads=4,
            n_kv_heads=2 if strategy == "GQA" else 4,
            vocab_size=16,
            max_seq_len=32,
            strategy=strategy,
        )
        m = build_model(cfg, seed=0)
        res = m.decode(np.arange(8) % 16, 8)
        expected = len(m.plan.storage_layers)
        ok &= res.peak_cache_layers == expected
        ok &= res.peak_cache_elements == 2 * expected * cfg.n_kv_heads * res.cache_length * cfg.head_dim
        if strategy not in ("Vanilla", "GQA", "CLA"):
            ok &= res.peak_cache_layers == 4  # L/2 with the default middle
        details.append(f"{strategy}:{res.peak_cache_layers}")
    out.append(_result("sharing", "persistent_cache_count_is_storage_set", ok, " ".join(details)))
    return out


# -- attention -----------------------------------------------------------------


def _attention_checks() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(41)

    q = Tensor(rng.standard_normal((4, 6, 8)))
    cache = LayerCache.stored(Tensor(rng.standard_normal((2, 6, 8))), Tensor(rng.standard_normal((2, 6, 8))), 1)
    base = attend(q, cache).numpy()

    # Causality: zero all K/V entries after position p; outputs at <= p identical.
    ok = True
    for p in (0, 2, 4):
        kz = cache.keys.numpy().copy()
        vz = cache.values.numpy().copy()
        kz[:, p + 1 :, :] = 0.0
        vz[:, p + 1 :, :] = 0.0
        zeroed = attend(q, LayerCache.stored(Tensor(kz), Tensor(vz), 1)).numpy()
        ok &= np.array_equal(zeroed[:, : p + 1, :], base[:, : p + 1, :])
    out.append(_result("attention", "future_tokens_cannot_affect_present", ok))

    # Two-path equivalence: the kernel on the weighted terms vs materialize-then-attend.
    # Six query rows take the kernel's summing path; each row alone takes the
    # fold, on the first t+1 cache rows as a decode step sees them.
    plan = plan_for_strategy("FusedKV", 4, 2)
    stored = _random_caches(rng, (1, 2), shape=(2, 6, 8))
    weights = init_normal(plan, 8, rng)
    k, v = reconstruct(plan, weights, stored, 3)
    terms = folded_cache(plan, weights, stored, 3)
    mat = attend(q, LayerCache.stored(k, v, 3)).numpy()
    fused = attend(q, terms).numpy()
    rows = []
    for t in range(6):
        head = {j: LayerCache.stored(Tensor(c.keys.numpy()[:, : t + 1]), Tensor(c.values.numpy()[:, : t + 1]), j)
                for j, c in stored.items()}
        rows.append(attend(Tensor(q.numpy()[:, t : t + 1, :]), folded_cache(plan, weights, head, 3)).numpy())
    dev = max(np.abs(mat - fused).max(), np.abs(mat - np.concatenate(rows, axis=1)).max())
    out.append(_result("attention", "fused_path_matches_materialized", dev <= 1e-12, f"max dev {dev:.2e}"))

    # End-to-end shift invariance: rotate inputs at shifted positions, then
    # attend, which reads no positions.
    sched = RopeSchedule(8)
    raw_q = rng.standard_normal((4, 6, 8))
    raw_k = {j: rng.standard_normal((2, 6, 8)) for j in (1, 2)}
    raw_v = {j: rng.standard_normal((2, 6, 8)) for j in (1, 2)}

    def fused_at(n_query_heads: int, shift: int) -> np.ndarray:
        pos = np.arange(6) + shift
        srcs = {
            j: LayerCache.stored(apply_rope(Tensor(raw_k[j]), pos, sched), Tensor(raw_v[j]), j) for j in (1, 2)
        }
        qr = apply_rope(Tensor(raw_q[:n_query_heads]), pos, sched)
        return attend(qr, folded_cache(plan, weights, srcs, 3)).numpy()

    # Grouped (4 query heads over 2) at shift 7, plain H_q = H_kv = 2 at shift 11.
    dev = max(np.abs(fused_at(h, 0) - fused_at(h, s)).max() for h, s in ((4, 7), (2, 11)))
    out.append(_result("attention", "outputs_shift_invariant", dev <= 1e-10, f"max dev {dev:.2e}"))

    # H_kv == H_q reproduces plain multi-head attention.
    cache4 = LayerCache.stored(Tensor(rng.standard_normal((4, 5, 8))), Tensor(rng.standard_normal((4, 5, 8))), 1)
    got = attend(Tensor(raw_q[:, :5, :]), cache4).numpy()
    # oracle: naive per-head, per-query loops
    want = np.zeros_like(got)
    for h in range(4):
        for t in range(5):
            scores = np.array(
                [raw_q[h, t] @ cache4.keys.numpy()[h, u] / np.sqrt(8.0) for u in range(t + 1)]
            )
            e = np.exp(scores - scores.max())
            probs = e / e.sum()
            want[h, t] = sum(probs[u] * cache4.values.numpy()[h, u] for u in range(t + 1))
    dev = np.abs(got - want).max()
    out.append(_result("attention", "gqa_degenerates_to_mha", dev <= 1e-12, f"max dev vs loop oracle {dev:.2e}"))
    return out


# -- model ---------------------------------------------------------------------


def _expected_parameter_count(cfg: ModelConfig, plan) -> int:
    d, h, hd = cfg.d_model, cfg.mlp_width, cfg.head_dim
    total = cfg.vocab_size * d * 2 + d  # embed, unembed, final norm
    for i in range(1, cfg.n_layers + 1):
        total += 2 * d  # two norm gains
        total += d * cfg.n_query_heads * hd  # w_q
        total += cfg.n_query_heads * hd * d  # w_o
        total += d * 2 * h + h * d  # mlp in/out
        if i not in plan.rules:
            total += 2 * d * cfg.n_kv_heads * hd  # w_k, w_v
        else:
            spec = plan.rules[i]
            for rule, per_vec in ((spec.key, hd // 2), (spec.value, hd)):
                if rule.kind == "fusion_vector":
                    total += per_vec * len(rule.sources)
                elif rule.kind == "fusion_scalar":
                    total += len(rule.sources)
    return total


def _model_checks() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(51)

    # Parameter accounting against the closed form.
    ok = True
    for strategy in STRATEGY_NAMES:
        cfg = toy_config(strategy)
        m = build_model(cfg, seed=1)
        expect = _expected_parameter_count(cfg, m.plan)
        ok &= m.parameter_count() == expect
        for i in m.plan.reconstruction_layers:
            ok &= f"layer{i}.w_k" not in m.params and f"layer{i}.w_v" not in m.params
    out.append(_result("model", "parameter_count_matches_closed_form", ok))

    # Full-model gradient oracle, every strategy.
    worst = 0.0
    per = []
    for strategy in STRATEGY_NAMES:
        m = build_model(toy_config(strategy), seed=2)
        tokens = rng.integers(0, 7, size=(1, 5))
        err = grad_check(lambda: m.forward_loss(tokens), [p for _, p in m.parameters()])
        per.append(f"{strategy}:{err:.1e}")
        worst = max(worst, err)
    out.append(_result("model", "full_model_gradients_match_fd", worst < 1e-4, " ".join(per) + f"; {_fd_oracle()}"))

    # Incremental decode of 32 + 16 tokens equals full recompute.
    worst, lengths_ok = 0.0, True
    for strategy in STRATEGY_NAMES:
        cfg = ModelConfig(
            n_layers=4,
            d_model=32,
            n_query_heads=4,
            n_kv_heads=2 if strategy == "GQA" else 4,
            vocab_size=16,
            max_seq_len=64,
            strategy=strategy,
        )
        m = build_model(cfg, seed=4)
        prompt = rng.integers(0, 16, size=32)
        res = m.decode(prompt, 16)
        full = m.forward_logits(res.tokens).numpy()[0]
        worst = max(worst, float(np.abs(full[: len(res.logits)] - res.logits).max()))
        lengths_ok &= res.tokens.size == 48
    out.append(
        _result("model", "incremental_decode_matches_recompute", worst < 1e-10 and lengths_ok, f"max dev {worst:.2e}")
    )

    # Single-precision decode stays within the loose tolerance.
    cfg32 = ModelConfig(
        n_layers=4, d_model=32, n_query_heads=4, n_kv_heads=4, vocab_size=16,
        max_seq_len=64, strategy="FusedKV", precision="single",
    )
    m32 = build_model(cfg32, seed=4)
    res32 = m32.decode(rng.integers(0, 16, size=32), 16)
    full32 = m32.forward_logits(res32.tokens).numpy()[0]
    dev32 = float(np.abs(full32[: len(res32.logits)] - res32.logits).max())
    out.append(_result("model", "single_precision_decode_within_1e-4", dev32 < 1e-4, f"max dev {dev32:.2e}"))

    # One tape-free decode step reads, and the caches then store, what Table 1 counts (L = 8,
    # d = 64, H_q = 8, context s = 41 after a 40-token prompt); reads are the key and value term
    # elements each layer hands the kernel. CLA and DenseFusion: 2L and L + L²/2 units read, L stored.
    L, n, reads_ok, reads, stores_ok, stores = 8, 40, True, [], True, []
    for strategy, n_kv, closed in (("Vanilla", 8, 0), ("GQA", 2, 0), ("YOCO", 8, 0), ("FusedKV-Lite", 8, 0),
                                   ("FusedKV", 8, 0), ("CLA", 8, 2 * L), ("DenseFusion", 8, L + L * L // 2)):
        m = build_model(ModelConfig(n_layers=L, d_model=64, n_query_heads=8, n_kv_heads=n_kv, strategy=strategy), seed=0)
        caches: dict = {}
        m._forward(np.arange(n)[None], np.arange(n), caches)
        m._forward(np.array([[n]]), np.array([n]), caches)
        handed = [folded_cache(m.plan, m.params, caches, i) if i in m.plan.rules else caches[i] for i in range(1, L + 1)]
        got = sum(t.size for c in handed for t, _ in c.key_terms + c.value_terms)
        unit, spec = (n + 1) * n_kv * m.cfg.head_dim, WorkloadSpec(L, n + 1, m.cfg.head_dim, 8, n_kv)
        want = closed * unit if closed else int(table1_costs(strategy, spec).cache_io_elements)
        reads_ok &= got == want
        reads.append(f"{strategy}:{got / unit:g}{' (closed form)' if closed else ''} vs {want / unit:g}")
        got = sum(c.keys.size + c.values.size for c in caches.values())
        want = L * unit if closed else int(table1_costs(strategy, spec).cache_mem_elements)
        stores_ok &= got == want
        stores.append(f"{strategy}:{got / unit:g}{' (closed form)' if closed else ''} vs {want / unit:g}")
    out.append(_result("model", "decode_reads_match_table1", reads_ok, "units of s·H_kv·D: " + ", ".join(reads)))
    out.append(_result("model", "decode_stores_match_table1", stores_ok, "units of s·H_kv·D: " + ", ".join(stores)))

    # Bottom-layer caches feed multiple layers when fused. Distinct gradient
    # paths into layer 1 = its own attention plus one per extra consumer of
    # its key or value cache on the tape.
    paths = {}
    for strategy in ("Vanilla", "FusedKV", "FusedKV-Lite"):
        m = build_model(toy_config(strategy), seed=5)
        tokens = rng.integers(0, 7, size=(1, 5))
        with Tape() as tape:
            for _, p in m.parameters():
                tape.watch(p)
            caches: dict = {}
            m.forward_logits(tokens, caches_out=caches)
            k_fan = tape.fan_out(caches[1].keys)
            v_fan = tape.fan_out(caches[1].values)
            paths[strategy] = 1 + (k_fan - 1) + (v_fan - 1)
    ok = paths["Vanilla"] == 1 and paths["FusedKV"] >= 2 and paths["FusedKV-Lite"] >= 2
    out.append(
        _result(
            "model",
            "fused_strategies_reuse_bottom_cache",
            ok,
            " ".join(f"{k}:{v} paths" for k, v in paths.items()),
        )
    )
    return out


# -- costmodel -------------------------------------------------------------------


def _costmodel_checks() -> list[CheckResult]:
    out = []

    # Frozen hand expansion at L=24, S=8192, D=128, Hq=Hkv=16.
    w = WorkloadSpec(24, 8192, 128, 16, 16)
    expected = {
        "MHA": (19791209299968, 2415919104, 805306368, 805306368),
        "YOCO": (9896611282944, 2214592512, 402653184, 805306368),
        "FusedKV-Lite": (9896611282944, 2214592512, 402653184, 805306368),
        "FusedKV": (9897819242496, 3422552064, 402653184, 1207959552),
    }
    ok = True
    for method, cells in expected.items():
        c = table1_costs(method, w)
        got = (c.prefill_flops, c.decode_flops, c.cache_mem_elements, c.cache_io_elements)
        ok &= all(float(a) == float(b) for a, b in zip(got, cells))
    mem_ratio = table1_costs("FusedKV", w).cache_mem_elements / table1_costs("MHA", w).cache_mem_elements
    io_ratio = table1_costs("FusedKV", w).cache_io_elements / table1_costs("MHA", w).cache_io_elements
    ok &= mem_ratio == 0.5 and io_ratio == 1.5
    out.append(_result("costmodel", "cost_table_matches_hand_expansion", ok, f"mem {mem_ratio}, io {io_ratio}"))

    # Monotonicity in every workload dimension.
    base = WorkloadSpec(8, 1024, 64, 16, 8)
    bumps = {
        "n_layers": WorkloadSpec(9, 1024, 64, 16, 8),
        "prefill_len": WorkloadSpec(8, 1536, 64, 16, 8),
        "head_dim": WorkloadSpec(8, 1024, 96, 16, 8),
        "n_query_heads": WorkloadSpec(8, 1024, 64, 32, 8),
        "n_kv_heads": WorkloadSpec(8, 1024, 64, 16, 16),
    }
    mono = True
    for method in ("MHA", "YOCO", "FusedKV-Lite", "FusedKV"):
        lo = table1_costs(method, base)
        for dim, spec in bumps.items():
            hi = table1_costs(method, spec)
            mono &= hi.prefill_flops >= lo.prefill_flops
            mono &= hi.decode_flops >= lo.decode_flops
            mono &= hi.cache_mem_elements >= lo.cache_mem_elements
            mono &= hi.cache_io_elements >= lo.cache_io_elements
    out.append(_result("costmodel", "costs_monotone_in_workload", mono))

    # Regime ratios hold on every device profile (they are device-free). The
    # hbm preset must be compute-bound in prefill and memory-bound in decode,
    # so neither ratio holds vacuously.
    ttft, tpot = {}, {}
    devices = list(DEVICE_PRESETS.values()) + [DeviceProfile("extra", 5.0e14, 9.9e11)]
    w32k = WorkloadSpec(24, 32768, 128, 16, 16)
    for dev in devices:
        fused = roofline_latency(table1_costs("FusedKV", w32k), dev)
        vanilla = roofline_latency(table1_costs("MHA", w32k), dev)
        if fused.ttft_bound == "compute" and vanilla.ttft_bound == "compute":
            ttft[dev.label] = fused.ttft_s / vanilla.ttft_s
        if fused.tpot_bound == "memory" and vanilla.tpot_bound == "memory":
            tpot[dev.label] = fused.tpot_s / vanilla.tpot_s
    ok = all(0.45 <= r <= 0.55 for r in ttft.values()) and all(1.45 <= r <= 1.55 for r in tpot.values())
    ok &= "hbm-accelerator" in ttft and "hbm-accelerator" in tpot
    # Compute-bound decode: fusion adds at most its FLOP fraction, 3/256 here, plus 1%.
    w_cb = WorkloadSpec(24, 32768, 128, 128, 2)
    fused = roofline_latency(table1_costs("FusedKV", w_cb), DEVICE_PRESETS["compute-heavy"])
    vanilla = roofline_latency(table1_costs("MHA", w_cb), DEVICE_PRESETS["compute-heavy"])
    cb = fused.tpot_s / vanilla.tpot_s
    ok &= fused.tpot_bound == vanilla.tpot_bound == "compute" and fusion_decode_overhead_fraction(w_cb) == 3 / 256
    ok &= cb <= 1 + 3 / 256 + 0.01
    details = [f"{label}:{kind} {r:.3f}" for kind, ratios in (("ttft", ttft), ("tpot", tpot)) for label, r in ratios.items()]
    details.append(f"compute-bound tpot {cb:.5f}")
    out.append(_result("costmodel", "regime_ratios_device_free", ok, "; ".join(details)))
    return out


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "numerics": _numerics_checks,
    "rope": _rope_checks,
    "sharing": _sharing_checks,
    "attention": _attention_checks,
    "model": _model_checks,
    "costmodel": _costmodel_checks,
}


def run_suite(name: str) -> list[CheckResult]:
    return SUITES[name]()


def run_suites(names: Sequence[str] | None = None) -> list[CheckResult]:
    names = list(names) if names else list(SUITES)
    results: list[CheckResult] = []
    for name in names:
        results.extend(run_suite(name))
    return results
