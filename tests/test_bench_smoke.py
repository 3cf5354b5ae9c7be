"""Smoke test of the benchmark's call contract: the cert_sweep workload, one
brute_certify op and a "pre" and a "post" desk panel of three trials run
through the package's public functions without a failed op.  The panel
workload times each trial by patching the module-global
``nlcs.experiment.recover_via_linearization``, so a missed trial raises in
``run_group`` and the patch is undone in ``finally``."""

import perfbench.workloads as workloads


def test_cert_sweep_pass(tmp_path):
    sweep = workloads.CertSweep(0, tmp_path)
    results = [sweep.run_group(group) for group in sweep.groups]
    assert len(results) == len(sweep.groups) > 0
    failed = [note for r in results if r.failed for note in r.notes]
    assert failed == []


def test_brute_certify_op(tmp_path):
    brute = workloads.BruteCertify(0, tmp_path)
    result = brute.run_group(brute.groups[0])
    assert result.failed == 0, result.notes


def test_panel_workload_pre_and_post(tmp_path):
    panels = [p for p in workloads.DESK_PANELS if p[0] in ("sign_pre", "square_post")]
    sizes = {"m": 64, "n": 128, "k": 10}
    work = workloads.PanelWorkload("desk_panels", panels, sizes, 3, 0, tmp_path)
    try:
        results = [work.run_group(panel) for panel in work.groups]
    finally:
        work.close()
    assert [r.ops for r in results] == [3, 3]
    assert [r.failed for r in results] == [0, 0], [r.notes for r in results]
