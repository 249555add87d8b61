"""Command-line interface.

    qaclab simulate -c FILE -i BITSTRING [--trace]
    qaclab check-parity -c FILE [--ancilla FILE]
    qaclab classify -c FILE --layer L --state FILE
    qaclab reduce -c FILE -o FILE
    qaclab kill-parity --unitaries FILE --parity B -o FILE
    qaclab refute -c FILE [--ancilla FILE] [-o FILE]
    qaclab verify-cert -c FILE --cert FILE
    qaclab verify SUITE [--trials N] [--qubits R] [--seed S]
                  [--backend exact|float] [--report FILE]
                  [--format text|machine] [--instance K]

Exit codes: 0 success / suite pass, 1 check failed / suite violation,
2 usage or configuration error, missing file, or malformed input file.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import harness
from .circuit import (
    CircuitValidationError,
    classify_simplification,
    computes_parity_on_basis,
    depth_reduce,
    simulate,
)
from .circuit_io import parse_circuit, serialize_circuit
from .numerics import DEFAULT_TOL
from .parity import (
    RefutationError,
    format_certificate,
    kill_parity_state,
    parse_certificate,
    parse_unitaries,
    refute_depth1,
    refute_depth2_structural,
    verify_certificate,
)
from .qstate import StateParseError, basis_state, format_state, parse_state
from .textio import ParseError, parse_bits

#: Errors that mean the input is malformed (exit 2), not that a check failed.
_BAD_INPUT = (ParseError, CircuitValidationError, harness.SuiteConfigError,
              FileNotFoundError)


def _read(path: str) -> str:
    return Path(path).read_text()


def _load_circuit(path: str):
    return parse_circuit(_read(path))


def _load_ancilla(args, circuit):
    """The --ancilla state, held to the circuit's ancilla register size
    and to the unit-norm bound the certificate verifier applies."""
    if not getattr(args, "ancilla", None):
        return None
    ancilla = parse_state(_read(args.ancilla))
    if ancilla.r != circuit.n_ancillas:
        raise StateParseError(f"ancilla register size mismatch: {ancilla.r} "
                              f"qubits, circuit has {circuit.n_ancillas}",
                              None, "register-mismatch")
    norm = ancilla.norm()
    if abs(norm - 1.0) > DEFAULT_TOL.threshold(1.0):
        raise StateParseError(f"ancilla norm {norm:.6g} is not 1", None,
                              "bad-norm")
    return ancilla


def _cmd_simulate(args) -> int:
    circuit = _load_circuit(args.circuit)
    bits = args.input
    parse_bits(bits, circuit.r, None)  # a malformed input exits 2
    if args.trace:
        final, steps = simulate(circuit, basis_state(circuit.r, bits), trace=True)
        for label, state in steps:
            print(f"# after layer {label:g}")
            sys.stdout.write(format_state(state))
    else:
        final = simulate(circuit, basis_state(circuit.r, bits))
    print("# final state")
    sys.stdout.write(format_state(final))
    return 0


def _cmd_check_parity(args) -> int:
    circuit = _load_circuit(args.circuit)
    ancilla = _load_ancilla(args, circuit)
    ok, counterexample = computes_parity_on_basis(circuit, ancilla)
    if ok:
        print("computes-parity: yes")
        return 0
    print(f"computes-parity: no (counterexample input {counterexample})")
    return 1


def _cmd_classify(args) -> int:
    circuit = _load_circuit(args.circuit)
    if not 1 <= args.layer <= circuit.depth:
        print(f"error: layer must be within 1..{circuit.depth}", file=sys.stderr)
        return 2
    state = parse_state(_read(args.state))
    if state.r != circuit.r:
        print("error: state register does not match circuit", file=sys.stderr)
        return 2
    gates = circuit.multi_layers[args.layer - 1]
    if not gates:
        print(f"layer {args.layer}: no multiqubit gates")
        return 0
    for gate in gates:
        outcome = classify_simplification(gate.qubits, state)
        print(f"{gate!r}: {outcome!r}")
    return 0


def _cmd_reduce(args) -> int:
    circuit = _load_circuit(args.circuit)
    reduced = depth_reduce(circuit)
    Path(args.output).write_text(serialize_circuit(reduced))
    print(f"wrote depth-{reduced.depth} circuit to {args.output}")
    return 0


def _cmd_kill_parity(args) -> int:
    units = parse_unitaries(_read(args.unitaries))
    psi = kill_parity_state(units, args.parity)
    Path(args.output).write_text(format_state(psi))
    print(f"wrote parity-{args.parity} killer state to {args.output}")
    return 0


def _cmd_refute(args) -> int:
    circuit = _load_circuit(args.circuit)
    ancilla = _load_ancilla(args, circuit)
    if circuit.depth == 1:
        cert = refute_depth1(circuit, ancilla)
    elif circuit.depth == 2:
        cert = refute_depth2_structural(circuit, ancilla)
        if cert is None:
            print("not-applicable: no structural tactic matches this circuit")
            return 1
    else:
        print("error: refuters cover depth-1 and depth-2 circuits",
              file=sys.stderr)
        return 2
    doc = format_certificate(cert)
    if args.output:
        Path(args.output).write_text(doc)
        print(f"wrote certificate to {args.output}")
    else:
        sys.stdout.write(doc)
    return 0


def _cmd_verify_cert(args) -> int:
    circuit = _load_circuit(args.circuit)
    cert = parse_certificate(_read(args.cert))
    ok, detail = verify_certificate(cert, circuit)
    print(f"certificate: {'valid' if ok else 'INVALID'} ({detail})")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    cfg = harness.default_config(
        args.suite, trials=args.trials, max_qubits=args.qubits,
        seed=args.seed, backend=args.backend)
    report = harness.run_suite(args.suite, cfg, only_instance=args.instance)
    doc = harness.emit_report(report, args.format)
    if args.report:
        Path(args.report).write_text(doc)
    sys.stdout.write(doc)
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaclab",
        description="Exact circuit simulation, separability analysis, and "
                    "parity refuters for shallow phase-gate circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a circuit on a basis input")
    p.add_argument("-c", "--circuit", required=True)
    p.add_argument("-i", "--input", required=True,
                   help="full-register bitstring, qubit 0 first")
    p.add_argument("--trace", action="store_true",
                   help="print the state after every layer")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("check-parity",
                       help="check the circuit computes parity on basis inputs")
    p.add_argument("-c", "--circuit", required=True)
    p.add_argument("--ancilla", help="state dump for the ancilla register")
    p.set_defaults(fn=_cmd_check_parity)

    p = sub.add_parser("classify",
                       help="classify layer gates on a given state")
    p.add_argument("-c", "--circuit", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--state", required=True)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("reduce", help="strip the last multiqubit layer")
    p.add_argument("-c", "--circuit", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("kill-parity",
                       help="build a pure-parity state killing the unitaries")
    p.add_argument("--unitaries", required=True)
    p.add_argument("--parity", type=int, choices=(0, 1), required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_kill_parity)

    p = sub.add_parser("refute",
                       help="construct a does-not-compute-parity certificate")
    p.add_argument("-c", "--circuit", required=True)
    p.add_argument("--ancilla")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_refute)

    p = sub.add_parser("verify-cert", help="re-check a certificate document")
    p.add_argument("-c", "--circuit", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(fn=_cmd_verify_cert)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=harness.SUITES)
    p.add_argument("--trials", type=int)
    p.add_argument("--qubits", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", choices=("exact", "float"))
    p.add_argument("--report", help="also write the report to a file")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.add_argument("--instance", type=int,
                   help="replay a single instance by index")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RefutationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
