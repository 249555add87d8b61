"""Line-oriented text format for circuits.

    qubits 4
    inputs 3
    ancillas 0
    layer 0.5
    u 0 H
    u 2 H
    layer 1
    cz 0 1
    cz 2 3
    layer 1.5
    u 2 H
    layer 2
    cz 0 2
    layer 2.5
    u 0 H

Header first (``qubits`` = 1 + inputs + ancillas), then ``layer`` blocks
with strictly increasing half-integer labels.  Half-integer layers hold
1-qubit entries ``u <qubit> <I|X|Y|Z|H|S|T>`` or
``u <qubit> matrix <re im re im re im re im>`` (row-major); integer
layers hold ``cz <q>...`` or ``geta <re> <im> <q>...``.  ``#`` starts a
comment.  The serializer emits a canonical form (sorted entries, empty
layers omitted) that parses back to an equal circuit; canonical files
round-trip byte for byte.

Every parse failure is a ``CircuitParseError`` (a ``ParseError``, see
``qaclab.textio``) printed as ``line N: message [kind]``; ``kind`` names
the error class:

    bad-header          missing/duplicate/ill-formed header, count mismatch
    bad-layer-index     label not a multiple of 0.5, out of order, duplicate,
                        above MAX_DEPTH + 0.5
    entry-outside-layer gate line before any layer line
    unknown-directive   unrecognized first word
    bad-qubit           non-integer or out-of-range qubit
    duplicate-qubit     qubit listed twice in one gate or layer
    layer-kind-mismatch u on an integer layer / cz-geta on a half layer
    unknown-gate-name   1-qubit name outside I X Y Z H S T
    bad-matrix          matrix entry count or value malformed
    non-unitary         explicit matrix fails the unitarity check
    bad-eta             geta phase malformed
    geta-modulus        geta phase without unit modulus
    geta-trivial        geta phase equal to 1
    register-too-large  more qubits than the 12-qubit cap

Numbers must be finite: ``nan`` or ``inf`` in a matrix or a geta phase
is malformed (``bad-matrix``, ``bad-eta``).  The gate checks (gate
name, unitarity, geta phase) live in ``Gate1q`` and ``MultiGate``; the
parser reports their kind with the line number.

Validation failures of an assembled circuit (overlapping gates in one
layer, layout mismatch) surface as ``CircuitValidationError`` with the
invariant named in ``kind``.  The CLI exits 2 on either error.
"""
from __future__ import annotations

from fractions import Fraction

from .circuit import (
    Circuit,
    CircuitValidationError,
    Gate1q,
    MultiGate,
)
from .numerics import DEFAULT_TOL, Tolerance, to_float
from .qstate import MAX_QUBITS
from .textio import (
    ParseError,
    content_lines,
    format_complexes,
    parse_complexes,
    parse_int,
)


#: Deepest circuit a file may describe; its last label is MAX_DEPTH + 0.5.
#: Every label up to it costs an (empty) layer, so a huge label would
#: otherwise allocate without bound.
MAX_DEPTH = 1000


class CircuitParseError(ParseError):
    pass


def parse_circuit(text: str, tol: Tolerance = DEFAULT_TOL) -> Circuit:
    header = {}
    current_layer = None  # label as Fraction
    singles = {}  # half label -> dict qubit -> Gate1q
    multis = {}   # int label -> list[MultiGate]

    for ln, parts in content_lines(text):
        word = parts[0]

        if word in ("qubits", "inputs", "ancillas"):
            if current_layer is not None:
                raise CircuitParseError("header after layer block", ln, "bad-header")
            if word in header:
                raise CircuitParseError(f"duplicate header {word!r}", ln, "bad-header")
            if len(parts) != 2:
                raise CircuitParseError(f"{word} needs one number", ln, "bad-header")
            header[word] = parse_int(parts[1], ln, CircuitParseError,
                                     lo=1 if word == "qubits" else 0,
                                     what=f"{word} count", kind="bad-header")
            continue

        if word == "layer":
            if len(header) < 3:
                raise CircuitParseError("layer before complete header", ln, "bad-header")
            if len(parts) != 2:
                raise CircuitParseError("layer needs one label", ln, "bad-layer-index")
            try:
                label = Fraction(parts[1])
            except ValueError:
                raise CircuitParseError(f"bad layer label {parts[1]!r}", ln,
                                        "bad-layer-index") from None
            if label * 2 != int(label * 2) or label < Fraction(1, 2):
                raise CircuitParseError("layer label must be a positive multiple "
                                        "of 0.5", ln, "bad-layer-index")
            if label > MAX_DEPTH + Fraction(1, 2):
                raise CircuitParseError(f"layer label above the depth cap "
                                        f"{MAX_DEPTH}", ln, "bad-layer-index")
            if current_layer is not None and label <= current_layer:
                raise CircuitParseError("layer labels must increase", ln,
                                        "bad-layer-index")
            current_layer = label
            continue

        if word in ("u", "cz", "geta"):
            if current_layer is None:
                raise CircuitParseError("gate entry before any layer", ln,
                                        "entry-outside-layer")
            if (word == "u") != (current_layer.denominator == 2):
                raise CircuitParseError("u needs a half layer, cz and geta an "
                                        "integer one", ln, "layer-kind-mismatch")
            try:  # gate checks (named gate, unitarity, geta phase) live in circuit
                if word == "u":
                    _parse_u(parts, ln, singles.setdefault(current_layer, {}),
                             header["qubits"], tol)
                else:
                    multis.setdefault(current_layer, []).append(
                        _parse_multi(word, parts, ln, header["qubits"]))
            except CircuitValidationError as exc:
                raise CircuitParseError(str(exc), ln, exc.kind) from None
            continue

        raise CircuitParseError(f"unknown directive {word!r}", ln,
                                "unknown-directive")

    for key in ("qubits", "inputs", "ancillas"):
        if key not in header:
            raise CircuitParseError(f"missing header {key!r}", None, "bad-header")
    r = header["qubits"]
    if r > MAX_QUBITS:
        raise CircuitParseError(f"more than {MAX_QUBITS} qubits", None,
                                "register-too-large")
    if r != 1 + header["inputs"] + header["ancillas"]:
        raise CircuitParseError("qubits must equal 1 + inputs + ancillas",
                                None, "bad-header")

    # layer d + 0.5 is the last 1-qubit layer of a depth-d circuit
    depth = max(map(int, [*singles, *multis]), default=0)
    return Circuit(r, header["inputs"], header["ancillas"],
                   [singles.get(Fraction(2 * i + 1, 2), {}) for i in range(depth + 1)],
                   [multis.get(Fraction(i + 1), []) for i in range(depth)])


def _parse_u(parts, ln, layer, r, tol):
    if len(parts) < 3:
        raise CircuitParseError("u needs a qubit and a gate", ln, "bad-matrix")
    q = parse_int(parts[1], ln, CircuitParseError, lo=0, hi=r - 1,
                  what="qubit", kind="bad-qubit")
    if q in layer:
        raise CircuitParseError(f"two gates on qubit {q} in one layer", ln,
                                "duplicate-qubit")
    if parts[2] == "matrix":
        layer[q] = Gate1q.from_matrix(parse_complexes(
            parts[3:], 4, ln, CircuitParseError, what="matrix entry",
            kind="bad-matrix"), tol)
    elif len(parts) != 3:
        raise CircuitParseError("named gate takes no extra arguments", ln,
                                "bad-matrix")
    else:
        layer[q] = Gate1q.named(parts[2])


def _parse_multi(word, parts, ln, r) -> MultiGate:
    eta = None
    qubit_toks = parts[1:]
    if word == "geta":
        if len(parts) < 3:
            raise CircuitParseError("geta needs a phase and qubits", ln, "bad-eta")
        eta, = parse_complexes(parts[1:3], 1, ln, CircuitParseError,
                               what="phase", kind="bad-eta")
        qubit_toks = parts[3:]
    qubits = []
    for tok in qubit_toks:
        q = parse_int(tok, ln, CircuitParseError, lo=0, hi=r - 1,
                      what="qubit", kind="bad-qubit")
        if q in qubits:
            raise CircuitParseError(f"qubit {q} repeated in gate", ln,
                                    "duplicate-qubit")
        qubits.append(q)
    return MultiGate(frozenset(qubits), word, eta)


def serialize_circuit(circuit: Circuit) -> str:
    """Canonical text form: sorted entries, empty layers omitted."""
    lines = [f"qubits {circuit.r}",
             f"inputs {circuit.n_inputs}",
             f"ancillas {circuit.n_ancillas}"]
    for i in range(circuit.depth + 1):
        layer = circuit.single_layers[i]
        if layer:
            lines.append(f"layer {i}.5")
            for q in sorted(layer):
                g = layer[q]
                if g.name is not None:
                    lines.append(f"u {q} {g.name}")
                else:
                    nums = format_complexes(g.float_mat().reshape(-1))
                    lines.append(f"u {q} matrix {nums}")
        if i < circuit.depth and circuit.multi_layers[i]:
            lines.append(f"layer {i + 1}")
            for g in sorted(circuit.multi_layers[i],
                            key=lambda g: min(g.qubits) if g.qubits else -1):
                qs = " ".join(map(str, sorted(g.qubits)))
                if g.kind == "cz":
                    lines.append(f"cz {qs}".rstrip())
                else:
                    eta = format_complexes([to_float(g.eta)])
                    lines.append(f"geta {eta} {qs}".rstrip())
    return "\n".join(lines) + "\n"
