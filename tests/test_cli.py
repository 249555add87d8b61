import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qaclab
from qaclab import harness
from qaclab.cli import build_parser, main
from qaclab.circuit import GATE_H, Circuit, cz, parity3_circuit
from qaclab.circuit_io import parse_circuit, serialize_circuit
from qaclab.numerics import make_rng, random_unitary
from qaclab.parity import (
    RefutationCertificate,
    format_certificate,
    format_unitaries,
    refute_depth1,
)
from qaclab.qstate import StateVector, basis_state, format_state, parse_state

DATA = Path(__file__).parent / "data"
PARITY3 = DATA / "parity3.qac"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_basis_input(capsys):
    code, out, _ = run_cli(capsys, "simulate", "-c", str(PARITY3), "-i", "0110")
    assert code == 0
    final = parse_state(out.split("# final state\n")[1])
    assert abs(final.amp("0110")) == pytest.approx(1.0)


def test_simulate_trace(capsys):
    code, out, _ = run_cli(capsys, "simulate", "-c", str(PARITY3), "-i", "0000",
                           "--trace")
    assert code == 0
    assert out.count("# after layer") == 5


def test_simulate_bad_input_length(capsys):
    code, _, err = run_cli(capsys, "simulate", "-c", str(PARITY3), "-i", "00")
    assert code == 2 and "4-bit" in err


def test_check_parity(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "check-parity", "-c", str(PARITY3))
    assert code == 0 and "yes" in out

    broken = Circuit(2, 1, 0, single_layers=[{}, {}], multi_layers=[[]])
    path = tmp_path / "broken.qac"
    path.write_text(serialize_circuit(broken))
    code, out, _ = run_cli(capsys, "check-parity", "-c", str(path))
    assert code == 1 and "counterexample" in out


def test_check_parity_with_ancilla_file(capsys, tmp_path):
    c = Circuit(5, 3, 1,
                single_layers=[dict(parity3_circuit().single_layers[0]),
                               dict(parity3_circuit().single_layers[1]),
                               dict(parity3_circuit().single_layers[2])],
                multi_layers=[list(parity3_circuit().multi_layers[0]),
                              list(parity3_circuit().multi_layers[1])])
    cpath = tmp_path / "anc.qac"
    cpath.write_text(serialize_circuit(c))
    apath = tmp_path / "ancilla.state"
    apath.write_text(format_state(basis_state(1, 1)))
    code, out, _ = run_cli(capsys, "check-parity", "-c", str(cpath),
                           "--ancilla", str(apath))
    assert code == 0 and "yes" in out


def test_classify_command(capsys, tmp_path):
    spath = tmp_path / "state.txt"
    spath.write_text(format_state(basis_state(4, "0111")))
    code, out, _ = run_cli(capsys, "classify", "-c", str(PARITY3),
                           "--layer", "1", "--state", str(spath))
    assert code == 0
    assert "CZ(0,1)" in out and "CZ(2,3)" in out
    assert "Disappears" in out        # CZ(0,1) sees target |0>
    assert "SimplifiesTo" in out      # CZ(2,3) has both qubits at |1>


def test_classify_layer_range(capsys, tmp_path):
    spath = tmp_path / "state.txt"
    spath.write_text(format_state(basis_state(4, "0000")))
    code, _, err = run_cli(capsys, "classify", "-c", str(PARITY3),
                           "--layer", "7", "--state", str(spath))
    assert code == 2 and "layer" in err


def test_reduce_command(capsys, tmp_path):
    c = Circuit(3, 2, 0,
                single_layers=[{0: GATE_H}, {0: GATE_H}, {}],
                multi_layers=[[cz(0, 1)], [cz(1, 2)]])
    cpath = tmp_path / "c.qac"
    cpath.write_text(serialize_circuit(c))
    out_path = tmp_path / "reduced.qac"
    code, out, _ = run_cli(capsys, "reduce", "-c", str(cpath),
                           "-o", str(out_path))
    assert code == 0
    reduced = parse_circuit(out_path.read_text())
    assert reduced.depth == 1


def test_reduce_rejects_parity3(capsys, tmp_path):
    code, _, err = run_cli(capsys, "reduce", "-c", str(PARITY3),
                           "-o", str(tmp_path / "x.qac"))
    assert code == 1


def test_kill_parity_command(capsys, tmp_path):
    rng = make_rng(90)
    upath = tmp_path / "units.txt"
    upath.write_text(format_unitaries([random_unitary(4, rng)]))
    opath = tmp_path / "state.txt"
    code, out, _ = run_cli(capsys, "kill-parity", "--unitaries", str(upath),
                           "--parity", "1", "-o", str(opath))
    assert code == 0
    psi = parse_state(opath.read_text())
    assert psi.r == 2


def test_refute_and_verify_cert(capsys, tmp_path):
    c = Circuit(3, 2, 0,
                single_layers=[{q: GATE_H for q in range(3)},
                               {q: GATE_H for q in range(3)}],
                multi_layers=[[cz(0, 1, 2)]])
    cpath = tmp_path / "c.qac"
    cpath.write_text(serialize_circuit(c))
    cert_path = tmp_path / "cert.txt"
    code, out, _ = run_cli(capsys, "refute", "-c", str(cpath),
                           "-o", str(cert_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify-cert", "-c", str(cpath),
                           "--cert", str(cert_path))
    assert code == 0 and "valid" in out

    # certificates for one circuit do not verify against another
    other = Circuit(3, 2, 0,
                    single_layers=[{0: GATE_H}, {0: GATE_H}],
                    multi_layers=[[cz(0, 1)]])
    opath = tmp_path / "other.qac"
    opath.write_text(serialize_circuit(other))
    code, out, _ = run_cli(capsys, "verify-cert", "-c", str(opath),
                           "--cert", str(cert_path))
    assert code == 1 and "INVALID" in out


def test_verify_cert_rejects_flip_of_input_without_parity(capsys, tmp_path):
    # |0>|+>|0>|0> and its flip on qubit 2 both end with target diag(1/2, 1/2)
    amps = np.zeros((2, 2, 2, 2), dtype=complex)
    amps[0, :, 0, 0] = 1 / np.sqrt(2)
    states = [StateVector(4, a.reshape(16)) for a in (amps, amps[:, :, ::-1])]
    cert = RefutationCertificate("target-independence", states, [None, None],
                                 flip_qubit=2)
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(format_certificate(cert))
    code, out, _ = run_cli(capsys, "verify-cert", "-c", str(PARITY3),
                           "--cert", str(cert_path))
    assert code == 1 and "definite parity" in out


#: Instances k = 0, 4, 5, 9 and 25 of the default depth1-refute suite
#: (seed 0): each circuit (``.qac``), its ancilla state if the instance
#: draws one (``.anc``), and the certificate ``qaclab refute`` printed
#: for them (``.cert``).  Both kinds of certificate, with and without
#: an ancilla register and an ancilla state, on 4 to 6 qubits.
CERTS = DATA / "certs"


@pytest.mark.parametrize("name", sorted(p.stem for p in CERTS.glob("*.cert")))
def test_refute_certificates_match_pinned_bytes(capsys, name):
    want = (CERTS / f"{name}.cert").read_text()
    argv = ["refute", "-c", str(CERTS / f"{name}.qac")]
    anc = CERTS / f"{name}.anc"
    if anc.exists():
        argv += ["--ancilla", str(anc)]
    assert run_cli(capsys, *argv) == (0, want, "")
    circuit = parse_circuit((CERTS / f"{name}.qac").read_text())
    ancilla = parse_state(anc.read_text()) if anc.exists() else None
    assert format_certificate(refute_depth1(circuit, ancilla)) == want


def test_refute_depth2_not_applicable(capsys):
    code, out, _ = run_cli(capsys, "refute", "-c", str(PARITY3))
    assert code == 1 and "not-applicable" in out


def test_verify_suite_pass(capsys, tmp_path):
    rpath = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "verify", "kill-parity", "--trials", "5",
                           "--report", str(rpath), "--format", "machine")
    assert code == 0
    assert "violations=0" in out
    assert rpath.read_text() == out


def test_verify_suite_machine_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "entanglement-lemma",
                             "--trials", "10", "--seed", "3",
                             "--format", "machine")
    code2, out2, _ = run_cli(capsys, "verify", "entanglement-lemma",
                             "--trials", "10", "--seed", "3",
                             "--format", "machine")
    assert (code1, out1) == (code2, out2)


@pytest.mark.parametrize("suite,instance", [("depth-reduce", "999"),
                                            ("tight-parity3", "-3"),
                                            ("tight-parity3", "16")])
def test_verify_instance_outside_suite_is_usage_error(capsys, tmp_path,
                                                      suite, instance):
    rpath = tmp_path / "report.txt"
    code, out, err = run_cli(capsys, "verify", suite, "--instance", instance,
                             "--format", "machine", "--report", str(rpath))
    assert code == 2 and "outside" in err
    assert out == "" and not rpath.exists()


@pytest.mark.parametrize("suite,backend", [("kill-parity", "exact"),
                                           ("tight-parity3", "float")])
def test_verify_backend_without_a_route_is_usage_error(capsys, tmp_path,
                                                       suite, backend):
    rpath = tmp_path / "report.txt"
    code, out, err = run_cli(capsys, "verify", suite, "--backend", backend,
                             "--format", "machine", "--report", str(rpath))
    assert code == 2 and f"not '{backend}'" in err
    assert out == "" and not rpath.exists()


@pytest.mark.parametrize("suite,option,value", [
    ("sv-vs-rank", "--qubits", "2"), ("simplify-lemma", "--qubits", "2"),
    ("entanglement-lemma", "--qubits", "1"), ("kill-parity", "--qubits", "1"),
    ("no-zero-divisors", "--qubits", "1"), ("sv-vs-rank", "--seed", "-5")])
def test_verify_config_that_cannot_be_drawn_is_usage_error(capsys, tmp_path,
                                                          suite, option, value):
    rpath = tmp_path / "report.txt"
    code, out, err = run_cli(capsys, "verify", suite, option, value,
                             "--format", "machine", "--report", str(rpath))
    assert code == 2 and ("seed" in err or "max_qubits" in err)
    assert out == "" and not rpath.exists()


def test_replay_line_reproduces_the_config(capsys):
    report = harness.run_suite("entanglement-lemma", trials=3, backend="exact",
                               max_qubits=4)
    report.violations.append("instance=1 synthetic failure")
    replay = next(line for line in harness.emit_report(report).splitlines()
                  if "replay" in line)
    args = build_parser().parse_args(shlex.split(replay.split(": qaclab ")[1]))
    cfg = harness.default_config(args.suite, trials=args.trials,
                                 max_qubits=args.qubits, seed=args.seed,
                                 backend=args.backend)
    assert cfg == harness.SuiteConfig(
        suite=report.suite, trials=report.trials, max_qubits=report.max_qubits,
        seed=report.seed, abs_eps=report.abs_eps, rel_eps=report.rel_eps,
        backend=report.backend)
    assert args.instance == 1


def test_one_parser_serves_every_call(capsys):
    calls = [["verify", "bogus-suite"],
             ["simulate", "-c", str(PARITY3), "-i", "0110"],
             ["verify", "kill-parity", "--trials", "3", "--format", "machine"]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert "invalid choice" in shared[0][2] and "violations=0" in shared[2][1]


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus-suite"])
    assert exc.value.code == 2


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.qac"
    bad.write_text("qubits 2\ninputs 1\nancillas 0\nlayer 0.5\nu 0 Q\n")
    code, _, err = run_cli(capsys, "simulate", "-c", str(bad), "-i", "00")
    assert code == 2 and "unknown-gate-name" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "check-parity", "-c", "/nonexistent.qac")
    assert code == 2


def test_console_script_entry_point():
    # the child imports the same qaclab as this test, installed or not
    src = str(Path(qaclab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qaclab.cli", "verify", "tight-parity3"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


@pytest.mark.parametrize("bits", ["00x0", "000"])
def test_verify_cert_malformed_bitstring_is_bad_input(capsys, tmp_path, bits):
    cert = tmp_path / "cert.txt"
    cert.write_text("kind parity-mismatch\nqubits 4\nparities 0 1\n"
                    f"state 0 {bits} 1.0 0.0\nstate 1 0001 1.0 0.0\n")
    code, out, err = run_cli(capsys, "verify-cert", "-c", str(PARITY3),
                             "--cert", str(cert))
    assert code == 2
    assert "line 4" in err and "certificate:" not in out


def test_kill_parity_malformed_unitaries_is_bad_input(capsys, tmp_path):
    upath = tmp_path / "units.txt"
    upath.write_text("qubits 1\nunitary\n1 0 0 0\n")
    code, _, err = run_cli(capsys, "kill-parity", "--unitaries", str(upath),
                           "--parity", "0", "-o", str(tmp_path / "out.txt"))
    assert code == 2 and "truncated" in err


@pytest.mark.parametrize("phase", ["nan 0", "0 inf"])
def test_simulate_non_finite_geta_phase_is_bad_input(capsys, tmp_path, phase):
    path = tmp_path / "nan.qac"
    path.write_text(f"qubits 2\ninputs 1\nancillas 0\nlayer 1\ngeta {phase} 0 1\n")
    code, out, err = run_cli(capsys, "simulate", "-c", str(path), "-i", "11")
    assert code == 2 and "line 5: non-finite phase" in err and "[bad-eta]" in err
    assert not out


@pytest.mark.parametrize("units", [
    "qubits 2\nunitary\n" + "nan 0 0 0 0 0 0 0\n" + "0 0 1 0 0 0 0 0\n"
    "0 0 0 0 1 0 0 0\n0 0 0 0 0 0 1 0\n",
    "qubits 1\nunitary\n1 0 0 0\n0 0 inf 0\n",
    "qubits -1\nunitary\n1 0\n",
    "qubits 0\nunitary\n1 0\n",
])
def test_kill_parity_bad_unitaries_is_bad_input(capsys, tmp_path, units):
    upath = tmp_path / "units.txt"
    upath.write_text(units)
    opath = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, "kill-parity", "--unitaries", str(upath),
                             "--parity", "0", "-o", str(opath))
    assert code == 2 and err.startswith("error: line ")
    assert not out and not opath.exists()


def test_overlapping_gates_in_a_layer_is_bad_input(capsys, tmp_path):
    path = tmp_path / "overlap.qac"
    path.write_text("qubits 3\ninputs 2\nancillas 0\nlayer 1\ncz 0 1\ncz 1 2\n")
    code, _, err = run_cli(capsys, "simulate", "-c", str(path), "-i", "000")
    assert code == 2 and "disjoint" in err


def _ancilla_circuit(tmp_path):
    c = Circuit(4, 2, 1,
                single_layers=[{q: GATE_H for q in range(4)},
                               {q: GATE_H for q in range(4)}],
                multi_layers=[[cz(0, 1, 2, 3)]])
    path = tmp_path / "anc.qac"
    path.write_text(serialize_circuit(c))
    return path


@pytest.mark.parametrize("command", ["refute", "check-parity"])
@pytest.mark.parametrize("amplitude, message", [
    ("nan 0.0", "line 2: non-finite amplitude"),
    ("inf 0.0", "line 2: non-finite amplitude"),
    ("5.0 0.0", "ancilla norm 5 is not 1"),
    ("1.001 0.0", "ancilla norm 1.001 is not 1"),
])
def test_bad_ancilla_is_bad_input(capsys, tmp_path, command, amplitude, message):
    apath = tmp_path / "ancilla.state"
    apath.write_text(f"# one ancilla qubit\n0 {amplitude}\n")
    code, out, err = run_cli(capsys, command, "-c", str(_ancilla_circuit(tmp_path)),
                             "--ancilla", str(apath))
    assert code == 2 and message in err and not out


@pytest.mark.parametrize("command", ["refute", "check-parity"])
def test_ancilla_register_size_mismatch_is_bad_input(capsys, tmp_path, command):
    apath = tmp_path / "ancilla.state"
    apath.write_text("00 1.0 0.0\n")
    code, out, err = run_cli(capsys, command, "-c", str(_ancilla_circuit(tmp_path)),
                             "--ancilla", str(apath))
    assert code == 2 and "ancilla register size mismatch" in err and not out


def test_unit_ancilla_is_accepted(capsys, tmp_path):
    apath = tmp_path / "ancilla.state"
    apath.write_text("0 0.6 0.0\n1 0.0 0.8\n")
    cpath = _ancilla_circuit(tmp_path)
    code, out, _ = run_cli(capsys, "refute", "-c", str(cpath), "--ancilla", str(apath))
    assert code == 0 and "kind" in out
    code, out, _ = run_cli(capsys, "check-parity", "-c", str(cpath),
                           "--ancilla", str(apath))
    assert code == 1 and "computes-parity: no" in out
