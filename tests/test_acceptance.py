"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line.  Criteria share module-scoped fixtures where instances are reused.

Note on criterion 5: the qualifying subset is defined by a brute-force
symmetric RIP constant below sqrt(2)-1 for the effective matrices of the
criterion-4 instance family.  Measurement shows that family never attains
the bound (see the assertion message for the observed minimum), so the
nonemptiness clause fails; the test states this honestly instead of
substituting a different instance family.
"""

import time

import numpy as np
import pytest

from nlcs.errors import RipOrderError
from nlcs.experiment import ExperimentConfig, emit_reports, run_experiment
from nlcs.matrix_core import gaussian_matrix, random_sparse_signal
from nlcs.nonlinear_maps import (
    abs_map,
    check_requirement,
    check_requirement_sampled,
    nonzero_random_map,
    quantize_away_from_zero,
    quantize_floor,
    sign_map,
    sine_map,
    square_map,
)
from nlcs.pointwise_linearization import (
    certificate_errors,
    classify,
    linearize,
    linearize_diagonal,
)
from nlcs.recovery import basis_pursuit, l0_oracle, recover_via_linearization, support_set
from nlcs.sensing_properties import (
    check_invariance_rip_order,
    check_invariance_spark,
    nsp_estimate,
    rip_constants,
    spark,
)

SQRT2_MINUS_1 = np.sqrt(2.0) - 1.0


def _report(num, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}" + (f": {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# criterion 1: invariance suite
# ---------------------------------------------------------------------------

def test_criterion_1_invariance_suite():
    t0 = time.perf_counter()
    failures = []
    for i in range(100):
        rng = np.random.default_rng(10_000 + i)
        A = gaussian_matrix(6, 12, 20_000 + i)
        while True:
            M_I = rng.normal(size=(6, 6))
            if abs(np.linalg.det(M_I)) >= 1e-6:
                break
        M_D = np.zeros((12, 12))
        vals = rng.uniform(0.5, 2.0, size=12) * rng.choice([-1.0, 1.0], size=12)
        M_D[np.arange(12), rng.permutation(12)] = vals
        if not check_invariance_spark(A, M_I, M_D):
            failures.append(("spark", i))
        if not check_invariance_rip_order(A, 2, M_I, M_D):
            failures.append(("rip", i))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(1, ok, f"100 triples, {len(failures)} failures, {elapsed:.1f} s")
    assert not failures
    assert elapsed < 60.0, f"invariance suite took {elapsed:.1f} s (budget 60 s)"


# ---------------------------------------------------------------------------
# criterion 2: linearization soundness on 1000 seeded (F, z) pairs
# ---------------------------------------------------------------------------

def test_criterion_2_linearization_soundness():
    violations = []
    certificates = 0
    for i in range(1000):
        rng = np.random.default_rng(30_000 + i)
        dim = int(rng.integers(2, 9))
        maps = [
            abs_map(dim),
            sign_map(dim),
            quantize_away_from_zero(dim, 0.5),
            sine_map(dim),
            square_map(dim),
            nonzero_random_map(dim, 4242),
        ]
        F = maps[i % len(maps)]
        z = rng.normal(size=dim)
        if F.kind == "sine":
            z = np.clip(z, -3.0, 3.0)
        if i % 3 == 1:
            z[rng.random(dim) < 0.4] = 0.0
        for t in (1, 2, 3, 4):
            if not check_requirement(F, t, z).holds:
                continue
            cert = linearize(F, z, t)
            certificates += 1
            problems = certificate_errors(cert)
            if problems:
                violations.append((i, F.kind, t, problems))
    ok = not violations
    _report(2, ok, f"1000 pairs, {certificates} certificates, {len(violations)} violations")
    assert not violations, violations[:5]


# ---------------------------------------------------------------------------
# criterion 3: requirement-checker discrimination
# ---------------------------------------------------------------------------

def test_criterion_3_requirement_discrimination():
    floor = check_requirement_sampled(quantize_floor(6, 1.0), 3, 100, seed=0)
    floor_ok = (not floor.holds) and np.any((floor.witness > 0.0) & (floor.witness < 1.0))

    afz_ok = check_requirement_sampled(quantize_away_from_zero(6, 1.0), 3, 100, seed=0).holds

    # dedicated closed-interval check: a planted boundary point must break
    # requirement 3 once the open-interval guard is lifted
    closed_sine = sine_map(3, open_domain=False)
    boundary = np.array([np.pi, 0.4, -1.1])
    sine_ok = not check_requirement(closed_sine, 3, boundary).holds

    ok = floor_ok and afz_ok and sine_ok
    _report(3, ok, f"floor fails: {floor_ok}, afz passes: {afz_ok}, closed sine fails: {sine_ok}")
    assert floor_ok and afz_ok and sine_ok


# ---------------------------------------------------------------------------
# criteria 4 and 5 share a seeded instance family
# ---------------------------------------------------------------------------

def _build_instance(i, seed_base=0):
    A = gaussian_matrix(6, 12, seed_base + 40_000 + i)
    x = random_sparse_signal(12, 2, seed_base + 41_000 + i)
    F = abs_map(6) if i % 2 == 0 else sign_map(6)
    anchor = A @ x
    cert = linearize_diagonal(F, anchor)
    B = cert.Y @ A
    z = cert.Fz
    try:
        rep = rip_constants(B, 4)
    except RipOrderError:
        rep = None
    return A, x, F, B, z, rep


@pytest.fixture(scope="module")
def criterion4_instances():
    return [_build_instance(i) for i in range(50)]


def test_criterion_4_l0_exactness(criterion4_instances):
    eligible = 0
    failures = []
    for idx, (A, x, F, B, z, rep) in enumerate(criterion4_instances):
        if rep is None:
            continue
        eligible += 1
        out = l0_oracle(rep.lam * B, rep.lam * z, 2)
        exact = (
            out.solver_status == "converged"
            and support_set(out.x_hat) == {int(j) for j in np.flatnonzero(x)}
            and np.linalg.norm(out.x_hat - x) / np.linalg.norm(x) <= 1e-8
        )
        if not exact:
            failures.append(idx)
    ok = eligible > 0 and not failures
    _report(4, ok, f"{eligible}/50 instances with RIP order 4, {len(failures)} recovery failures")
    assert eligible == 50  # generic Gaussians keep RIP order 4
    assert not failures


def test_criterion_5_l1_l0_agreement_on_qualifying_subset(criterion4_instances):
    deltas = [rep.delta for *_rest, rep in criterion4_instances if rep is not None]
    qualifying = [
        inst for inst in criterion4_instances
        if inst[5] is not None and inst[5].delta < SQRT2_MINUS_1
    ]
    # the criterion allows reseeding when the subset is empty
    batches = 0
    while not qualifying and batches < 10:
        batches += 1
        fresh = [_build_instance(i, seed_base=100_000 * batches) for i in range(50)]
        deltas += [rep.delta for *_rest, rep in fresh if rep is not None]
        qualifying = [
            inst for inst in fresh if inst[5] is not None and inst[5].delta < SQRT2_MINUS_1
        ]
    failures = []
    for A, x, F, B, z, rep in qualifying:
        bp = basis_pursuit(rep.lam * B, rep.lam * z)
        oracle = l0_oracle(rep.lam * B, rep.lam * z, 2)
        agree = (
            bp.solver_status == "converged"
            and support_set(bp.x_hat) == support_set(oracle.x_hat)
            and np.linalg.norm(bp.x_hat - x) / np.linalg.norm(x) <= 1e-6
        )
        if not agree:
            failures.append((bp, oracle))
    ok = bool(qualifying) and not failures
    detail = (
        f"{len(qualifying)} qualifying instances after {batches} reseed batches, "
        f"{len(failures)} disagreements; min measured delta_4 = {min(deltas):.4f} "
        f"vs required < {SQRT2_MINUS_1:.4f}"
    )
    _report(5, ok, detail)
    assert not failures
    assert qualifying, (
        "qualifying subset is empty and reseeding cannot populate it: over "
        f"{50 + 50 * batches} seeded 6x12 Gaussian instances the smallest "
        f"brute-force delta_4 of the effective matrix was {min(deltas):.4f}, "
        f"far above the sqrt(2)-1 = {SQRT2_MINUS_1:.4f} bound the criterion "
        "conditions on; at this matrix size the bound is unattainable for "
        "Gaussian sensing matrices (left tail of the constraint is empty), "
        "so the l1/l0 agreement clause is vacuous here"
    )


# ---------------------------------------------------------------------------
# criterion 6: collision recovery
# ---------------------------------------------------------------------------

def test_criterion_6_collision_recovery():
    A = gaussian_matrix(4, 8, 60_606)
    x1 = np.zeros(8)
    x1[2] = 1.5
    x2 = 2.0 * x1  # same sign pattern under any matrix
    collided = np.array_equal(np.sign(A @ x1), np.sign(A @ x2))
    out1 = recover_via_linearization(A, sign_map(4), "pre", x1, "l0")
    out2 = recover_via_linearization(A, sign_map(4), "pre", x2, "l0")
    exact1 = out1.report.rel_error <= 1e-10 and out1.report.support_exact
    exact2 = out2.report.rel_error <= 1e-10 and out2.report.support_exact
    distinct = not np.array_equal(x1, x2)
    ok = collided and exact1 and exact2 and distinct
    _report(6, ok, f"collision: {collided}, both recovered exactly: {exact1 and exact2}")
    assert collided and distinct
    assert exact1 and exact2


# ---------------------------------------------------------------------------
# criteria 7 and 8: scaled experiment reproduction and determinism
# ---------------------------------------------------------------------------

PANELS = [
    ("baseline", {"kind": "identity"}, "pre"),
    ("f1_nonzero_random", {"kind": "nonzero_random", "seed": 777}, "pre"),
    ("f2_abs", {"kind": "abs"}, "pre"),
    ("f3_sign", {"kind": "sign"}, "pre"),
    ("f4_sine", {"kind": "sine"}, "post"),
    ("f5_square", {"kind": "square"}, "post"),
]


def _panel_config(name, map_spec, composition, out_dir):
    return ExperimentConfig(
        m=64,
        n=128,
        k=10,
        map_spec=map_spec,
        composition=composition,
        trials=100,
        seed=7_000 + PANELS.index((name, map_spec, composition)),
        method="l1",
        output_dir=str(out_dir),
    )


def _run_panels(root):
    outputs = {}
    for name, map_spec, composition in PANELS:
        cfg = _panel_config(name, map_spec, composition, root / name)
        result = run_experiment(cfg)
        emit_reports(result.records, result.summary, cfg.output_dir, result.signals)
        outputs[name] = result
    return outputs


@pytest.fixture(scope="module")
def panel_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("experiment_run_a")
    t0 = time.perf_counter()
    outputs = _run_panels(root)
    elapsed = time.perf_counter() - t0
    return root, outputs, elapsed


def test_criterion_7_scaled_experiment(panel_runs):
    _, outputs, elapsed = panel_runs
    rates = {name: res.summary.success_rate for name, res in outputs.items()}
    ok = all(rate >= 0.95 for rate in rates.values()) and elapsed < 600.0
    detail = ", ".join(f"{name}={rate:.2f}" for name, rate in rates.items())
    _report(7, ok, f"{detail}; {elapsed:.0f} s")
    for name, rate in rates.items():
        assert rate >= 0.95, f"panel {name} success rate {rate}"
    # the invertible-matrix map gets type-2 certificates, all others diagonal
    for name, res in outputs.items():
        want = 2 if name == "f1_nonzero_random" else 3
        assert all(r.certificate_type == want for r in res.records), name
    assert elapsed < 600.0, f"experiment took {elapsed:.0f} s (budget 600 s)"


def test_criterion_8_determinism(panel_runs, tmp_path_factory):
    root_a, _, _ = panel_runs
    root_b = tmp_path_factory.mktemp("experiment_run_b")
    _run_panels(root_b)
    mismatched = []
    compared = 0
    for name, _, _ in PANELS:
        dir_a, dir_b = root_a / name, root_b / name
        files_a = sorted(p.name for p in dir_a.iterdir())
        files_b = sorted(p.name for p in dir_b.iterdir())
        if files_a != files_b:
            mismatched.append((name, "file lists differ"))
            continue
        for fname in files_a:
            compared += 1
            if (dir_a / fname).read_bytes() != (dir_b / fname).read_bytes():
                mismatched.append((name, fname))

    # property reports regenerate byte-identically as well
    A = gaussian_matrix(6, 12, 88_001)
    json_pairs = [
        (spark(A).to_json(), spark(A.copy()).to_json()),
        (rip_constants(A, 2).to_json(), rip_constants(A.copy(), 2).to_json()),
        (
            nsp_estimate(A, 2, 200, seed=5).to_json(),
            nsp_estimate(A.copy(), 2, 200, seed=5).to_json(),
        ),
        (
            classify(abs_map(6), "pre", 100, seed=3).to_json(),
            classify(abs_map(6), "pre", 100, seed=3).to_json(),
        ),
        (
            linearize_diagonal(sign_map(6), A[:, 0] + 0.1).to_json(),
            linearize_diagonal(sign_map(6), A[:, 0] + 0.1).to_json(),
        ),
    ]
    for a, b in json_pairs:
        compared += 1
        if a != b:
            mismatched.append(("json", a[:40]))

    ok = not mismatched
    _report(8, ok, f"{compared} artifacts compared, {len(mismatched)} mismatches")
    assert not mismatched, mismatched[:5]
