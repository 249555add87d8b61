import sys
from pathlib import Path

import numpy as np
import pytest

from qaclab import harness
from qaclab.harness import (
    SUITES,
    ReportParseError,
    SuiteConfig,
    SuiteConfigError,
    default_config,
    emit_report,
    parse_machine_report,
    run_suite,
)
from qaclab.qstate import random_state


def test_unknown_suite_rejected():
    with pytest.raises(SuiteConfigError):
        run_suite("no-such-suite")
    with pytest.raises(SuiteConfigError):
        default_config("no-such-suite")


def test_config_budget_checks():
    with pytest.raises(SuiteConfigError):
        SuiteConfig(suite="kill-parity", trials=0, max_qubits=4)
    with pytest.raises(SuiteConfigError):
        SuiteConfig(suite="kill-parity", trials=5, max_qubits=13)
    with pytest.raises(SuiteConfigError):
        SuiteConfig(suite="kill-parity", trials=5, max_qubits=4,
                    backend="quantum")


FLOAT_ONLY = ["simplify-lemma", "no-zero-divisors", "irreducibility-family",
              "kill-parity", "depth1-refute", "depth-reduce", "topology-6qubit"]


@pytest.mark.parametrize("suite,backend", [(s, "exact") for s in FLOAT_ONLY]
                         + [("tight-parity3", "float")])
def test_backend_without_a_route_rejected(suite, backend):
    with pytest.raises(SuiteConfigError, match=f"not '{backend}'"):
        run_suite(suite, trials=1, backend=backend)
    with pytest.raises(SuiteConfigError, match=f"not '{backend}'"):
        default_config(suite, backend=backend)


@pytest.mark.parametrize("suite,overrides", [
    ("sv-vs-rank", dict(max_qubits=2)), ("simplify-lemma", dict(max_qubits=2)),
    ("entanglement-lemma", dict(max_qubits=1)), ("kill-parity", dict(max_qubits=1)),
    ("no-zero-divisors", dict(max_qubits=1)), ("sv-vs-rank", dict(seed=-5))])
def test_config_that_cannot_be_drawn_rejected(suite, overrides):
    with pytest.raises(SuiteConfigError, match="seed|max_qubits"):
        run_suite(suite, trials=1, **overrides)
    with pytest.raises(SuiteConfigError, match="seed|max_qubits"):
        default_config(suite, **overrides)


@pytest.mark.parametrize("suite,qubits", [
    ("sv-vs-rank", 3), ("simplify-lemma", 3), ("entanglement-lemma", 2),
    ("kill-parity", 2), ("no-zero-divisors", 2), ("depth1-refute", 1)])
def test_smallest_register_runs(suite, qubits):
    assert run_suite(suite, trials=3, max_qubits=qubits).passed


def test_default_configs_cover_all_suites():
    for name in SUITES:
        cfg = default_config(name)
        assert cfg.suite == name and cfg.trials >= 1


def test_machine_report_round_trip():
    report = run_suite("kill-parity", trials=10)
    text = emit_report(report, "machine")
    back = parse_machine_report(text)
    assert back == report  # wall time excluded from equality


def test_machine_report_determinism():
    a = emit_report(run_suite("entanglement-lemma", trials=25, seed=5), "machine")
    b = emit_report(run_suite("entanglement-lemma", trials=25, seed=5), "machine")
    assert a == b
    c = emit_report(run_suite("entanglement-lemma", trials=25, seed=6), "machine")
    assert "seed=6" in c


def test_passing_report_contains_zero_violations():
    report = run_suite("tight-parity3")
    machine = emit_report(report, "machine")
    assert "violations=0" in machine
    text = emit_report(report, "text")
    assert "PASS" in text


def test_failing_report_embeds_replay_command():
    report = run_suite("kill-parity", trials=3)
    report.violations.append("instance=1 synthetic failure for formatting")
    text = emit_report(report, "text")
    assert "replay" in text and "--instance 1" in text
    machine = emit_report(report, "machine")
    assert "violation_0=instance=1 synthetic failure for formatting" in machine
    back = parse_machine_report(machine)
    assert back.violations == report.violations


def test_report_parse_errors():
    with pytest.raises(ReportParseError):
        parse_machine_report("not a report\n")
    with pytest.raises(ReportParseError):
        parse_machine_report("suite=kill-parity\n")  # missing fields
    good = emit_report(run_suite("tight-parity3"), "machine")
    with pytest.raises(ReportParseError):
        parse_machine_report(good.replace("violations=0", "violations=2"))


def test_single_instance_replay_reproduces_subset():
    full = run_suite("kill-parity", trials=10)
    assert full.instances == 10
    one = run_suite("kill-parity", only_instance=3, trials=10)
    assert one.instances == 1
    assert one.passed


@pytest.mark.parametrize("suite,trials,instance", [
    ("kill-parity", 10, 10), ("kill-parity", 10, -1),
    ("tight-parity3", 1, 16), ("irreducibility-family", 2, 12)])
def test_instance_outside_suite_rejected(suite, trials, instance):
    with pytest.raises(SuiteConfigError, match="outside"):
        run_suite(suite, trials=trials, only_instance=instance)


def test_tight_parity3_runs_every_basis_input():
    assert run_suite("tight-parity3").instances == 16
    assert run_suite("tight-parity3", only_instance=15).instances == 1


def test_each_suite_passes_smoke_scale():
    for name in SUITES:
        overrides = {} if name == "tight-parity3" else {"trials": 6}
        report = run_suite(name, **overrides)
        assert report.passed, (name, report.violations[:2])


def test_entanglement_exact_backend():
    report = run_suite("entanglement-lemma", trials=30, backend="exact",
                       max_qubits=4)
    assert report.passed, report.violations[:2]


@pytest.mark.parametrize("suite", ["tight-parity3", "sv-vs-rank",
                                   "entanglement-lemma"])
def test_exact_suites_never_go_float(exact_stays_exact, suite):
    report = run_suite(suite, backend="exact")
    assert report.backend == "exact" and report.passed


def test_simplify_lemma_decides_every_cut_size_in_one_pass(monkeypatch):
    # an r = 6 instance asks all 31 cuts of one state: the first is decided
    # alone, then one stacked SVD per cut size (1, 2, 3); a full SVD is
    # made only for the factors of a separating cut
    cfg = default_config("simplify-lemma")
    k = next(k for k in range(cfg.trials)
             if harness._rng(cfg, k).integers(3, cfg.max_qubits + 1) == 6)
    decisions, full, flags = [], [], []
    svd, separates_at = np.linalg.svd, harness.separates_at

    def counted_svd(m, *args, compute_uv=True, **kwargs):
        (full if compute_uv else decisions).append(m.shape)
        return svd(m, *args, compute_uv=compute_uv, **kwargs)

    def recorded(*args):
        out = separates_at(*args)
        flags.append(out[0])
        return out

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(harness, "separates_at", recorded)
    assert run_suite("simplify-lemma", cfg, only_instance=k).passed
    assert len(flags) == 31
    assert len(decisions) <= 1 + 3
    assert len(full) == sum(flags)


def test_no_zero_divisors_partners_match_single_draws(monkeypatch):
    # the 50 partner pairs, drawn and formed as one batch, are byte for
    # byte those of 50 single random_state draws each tensored alone
    cfg = default_config("no-zero-divisors")
    tensors, classified = [], []
    tensor, classify = harness.tensor, harness.classify_simplification
    monkeypatch.setattr(harness, "tensor", lambda *args, **kwargs:
                        tensors.append((args, kwargs)) or tensor(*args, **kwargs))
    monkeypatch.setattr(harness, "classify_simplification", lambda s, psi, tol:
                        classified.append(psi) or classify(s, psi, tol))
    for k in range(0, cfg.trials, 25):
        tensors.clear()
        classified.clear()
        assert run_suite("no-zero-divisors", cfg, only_instance=k).passed
        (certified_state, partners), kwargs = tensors[-1]
        draws = harness._rng(cfg, k, 1)
        want = [tensor(certified_state, random_state(partners[0].r, draws), **kwargs)
                for _ in range(50)]
        assert len(classified) == 51
        assert ([psi.amps.tobytes() for psi in classified[1:]]
                == [psi.amps.tobytes() for psi in want])


REPORTS = Path(__file__).parent / "data" / "reports"

#: Machine reports pinned byte for byte at 30 trials: every accepted
#: (suite, backend) pair, and float sv-vs-rank at tolerances 1e-15 and
#: 0.3, of which 0.3 prints violation lines.  Reports hold counts and
#: violation lines only, so they guard against verdict flips and crashes,
#: not amplitude bits.  Rewrite one with
#:
#:     PYTHONPATH=src python tests/test_harness.py NAME
PINNED = [
    ("sv-vs-rank-float-1e-15", "sv-vs-rank",
     dict(backend="float", abs_eps=1e-15, rel_eps=1e-15)),
    ("sv-vs-rank-float-0.3", "sv-vs-rank",
     dict(backend="float", abs_eps=0.3, rel_eps=0.3)),
    ("sv-vs-rank-exact", "sv-vs-rank", dict(backend="exact")),
    ("entanglement-lemma-float", "entanglement-lemma", dict(backend="float")),
    ("entanglement-lemma-exact", "entanglement-lemma", dict(backend="exact")),
] + [(suite, suite, {}) for suite in (
    "tight-parity3", "irreducibility-family", "no-zero-divisors",
    "simplify-lemma", "depth-reduce", "depth1-refute", "kill-parity",
    "topology-6qubit")]


def pinned_report(suite, overrides) -> bytes:
    return emit_report(run_suite(suite, trials=30, **overrides), "machine").encode()


@pytest.mark.parametrize("name,suite,overrides", PINNED,
                         ids=[name for name, _, _ in PINNED])
def test_machine_report_matches_pinned(name, suite, overrides):
    assert pinned_report(suite, overrides) == (REPORTS / f"{name}.machine").read_bytes()


if __name__ == "__main__":
    configs = {name: (suite, overrides) for name, suite, overrides in PINNED}
    if len(sys.argv) != 2 or sys.argv[1] not in configs:
        sys.exit(f"usage: test_harness.py NAME, NAME one of {', '.join(configs)}")
    path = REPORTS / f"{sys.argv[1]}.machine"
    path.write_bytes(pinned_report(*configs[sys.argv[1]]))
    sys.stdout.write(f"wrote {path}\n")
