"""Smoke test of the benchmark's call contract: the cert_sweep workload and
one brute_certify op run through the package's public functions without a
failed op.  The panel workloads are left out: they patch module globals."""

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
