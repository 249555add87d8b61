"""The shared text reader, and mutation fuzzing of the five parsers.

Each property starts from a valid document and applies one to three
mutations: drop, duplicate or swap a line or a token, or replace a token
with ``nan``, ``inf``, ``-1``, ``x`` or ``99999``.  The mutated text must
either parse to a document that keeps the format's rules (finite numbers;
amplitude lines that do not repeat; formatted text that reads back to
itself) or raise a ``ParseError``; circuits may also raise
``CircuitValidationError``.  Anything else escaping is a parser bug.
"""
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaclab.circuit import GATE_H, Circuit, CircuitValidationError, cz
from qaclab.circuit_io import parse_circuit, serialize_circuit
from qaclab.cli import main
from qaclab.multilinear import MultilinearPoly, VarId, format_poly, parse_poly
from qaclab.numerics import make_rng, random_unitary, to_float
from qaclab.parity import (
    format_certificate,
    format_unitaries,
    parse_certificate,
    parse_unitaries,
    refute_depth1,
)
from qaclab.qstate import basis_state, format_state, parse_state, random_state
from qaclab.textio import (
    ParseError,
    content_lines,
    format_complexes,
    parse_bits,
    parse_complexes,
    parse_int,
)

DATA = Path(__file__).parent / "data"

# ---- the reader and token parsers -------------------------------------------


def test_parse_error_shape():
    err = ParseError("bad thing", 3, "bad-number")
    assert (str(err), err.line_no, err.kind) == ("line 3: bad thing [bad-number]",
                                                 3, "bad-number")
    assert str(ParseError("empty")) == "empty [syntax]"
    assert isinstance(err, ValueError)


def test_content_lines_drop_comments_and_blanks():
    text = "# header\n\nqubits 2  # trailing\n   \n  a  b\tc\n#\n"
    assert list(content_lines(text)) == [(3, ["qubits", "2"]), (5, ["a", "b", "c"])]


def test_parse_int_bounds():
    assert parse_int("7", 1, lo=0, hi=7) == 7
    for tok in ("8", "-1"):
        with pytest.raises(ParseError, match=r"line 1: qubit -?\d+ out of range \[bad-qubit\]"):
            parse_int(tok, 1, lo=0, hi=7, what="qubit", kind="bad-qubit")
    with pytest.raises(ParseError, match="expected integer, got 'x'"):
        parse_int("x", 2)


@pytest.mark.parametrize("tok", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_parse_complexes_rejects_non_finite(tok):
    with pytest.raises(ParseError, match=f"line 4: non-finite amplitude '{tok}'"):
        parse_complexes(["0", tok], 1, 4, what="amplitude")


def test_parse_complexes_count_and_values():
    assert parse_complexes(["1", "-2", "0.5", "0"], 2, 1) == [1 - 2j, 0.5]
    assert format_complexes([1 - 2j, 0.5]) == "1.0 -2.0 0.5 0.0"
    with pytest.raises(ParseError, match="expected 4 numbers, got 3"):
        parse_complexes(["1", "2", "3"], 2, 1)
    with pytest.raises(ParseError, match="bad number 'x'"):
        parse_complexes(["1", "x"], 1, 1)


def test_parse_bits():
    assert parse_bits("0110", 4, 1) == 6
    for tok in ("011", "01100", "01x0"):
        with pytest.raises(ParseError, match="expected a 4-bit string"):
            parse_bits(tok, 4, 1)


class _Local(ParseError):
    pass


def test_token_parsers_raise_the_given_class():
    with pytest.raises(_Local):
        parse_int("x", 1, _Local)
    with pytest.raises(_Local):
        parse_complexes(["nan", "0"], 1, 1, _Local)
    with pytest.raises(_Local):
        parse_bits("2", 1, 1, _Local)


def test_poly_repeated_variable_names_its_line():
    # x[0],x[0] is x0^2, not x0: multilinear terms hold each variable once
    with pytest.raises(ParseError, match=r"^line 2: variable repeated in a term "
                                         r"\[repeated-variable\]$") as err:
        parse_poly("1 0 : x[0]\n1 0 : x[0],z[1],x[0]\n")
    assert (err.value.line_no, err.value.kind) == (2, "repeated-variable")


# ---- mutation fuzzing ---------------------------------------------------------

REPLACEMENTS = ("nan", "inf", "-1", "x", "99999")


def mutate(text, ops):
    """Apply ``(op, line, token, other)`` mutations to ``text``; indices
    wrap around, and token ops skip lines left without tokens."""
    lines = [raw.split() for raw in text.splitlines()]
    for op, i, k, j in ops:
        if not lines:
            break
        i %= len(lines)
        if op == "drop-line":
            del lines[i]
        elif op == "dup-line":
            lines.insert(i, list(lines[i]))
        elif op == "swap-lines":
            j %= len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        elif lines[i]:
            toks = lines[i]
            k %= len(toks)
            if op == "drop-token":
                del toks[k]
            elif op == "dup-token":
                toks.insert(k, toks[k])
            elif op == "swap-tokens":
                j %= len(toks)
                toks[k], toks[j] = toks[j], toks[k]
            else:
                toks[k] = REPLACEMENTS[j % len(REPLACEMENTS)]
    return "".join(" ".join(toks) + "\n" for toks in lines)


OPS = st.lists(st.tuples(
    st.sampled_from(["drop-line", "dup-line", "swap-lines", "drop-token",
                     "dup-token", "swap-tokens", "replace-token"]),
    st.integers(0, 99), st.integers(0, 99), st.integers(0, 99)),
    min_size=1, max_size=3)


def _parse_or_reject(parse, text, errors=(ParseError,)):
    """The parsed document, or None when ``parse`` rejects the text with
    one of ``errors``.  Any other exception fails the test."""
    try:
        return parse(text)
    except errors:
        return None


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=complex))))


def _round_trips(doc, fmt, parse) -> bool:
    """The formatted text of a parsed document reads back to itself."""
    return fmt(parse(fmt(doc))) == fmt(doc)


def _no_repeats(keys) -> bool:
    keys = list(keys)
    return len(keys) == len(set(keys))


_RNG = make_rng(3110)
_GETA_CIRCUIT = ("qubits 3\ninputs 2\nancillas 0\nlayer 0.5\n"
                 f"u 1 matrix {format_complexes(random_unitary(2, _RNG).reshape(-1))}\n"
                 "layer 1\ngeta 0.6 0.8 0 2\nlayer 1.5\nu 0 H\n")
CIRCUITS = [(DATA / "parity3.qac").read_text(), _GETA_CIRCUIT]
STATE = format_state(random_state(3, _RNG))
POLY = "# two terms and a constant\n" + format_poly(MultilinearPoly({
    frozenset({VarId("x", "0"), VarId("z", "1")}): 0.5 - 1j,
    frozenset({VarId("y", "01")}): 2.0,
    frozenset(): -0.25}))
UNITARIES = format_unitaries([random_unitary(4, _RNG)])
_REFUTABLE = Circuit(3, 2, 0,
                     single_layers=[{q: GATE_H for q in range(3)},
                                    {q: GATE_H for q in range(3)}],
                     multi_layers=[[cz(0, 1, 2)]])
CERTIFICATE = format_certificate(refute_depth1(_REFUTABLE))


def check_circuit(text):
    c = _parse_or_reject(parse_circuit, text, (ParseError, CircuitValidationError))
    if c is not None:
        assert all(_finite(g.float_mat()) for layer in c.single_layers
                   for g in layer.values())
        assert all(_finite([to_float(g.eta)]) for layer in c.multi_layers
                   for g in layer)
        assert _round_trips(c, serialize_circuit, parse_circuit)


def check_state(text):
    psi = _parse_or_reject(parse_state, text)
    if psi is not None:
        assert _finite(psi.amps)
        assert _no_repeats(toks[0] for _, toks in content_lines(text))
        assert _round_trips(psi, format_state, parse_state)


def check_poly(text):
    f = _parse_or_reject(parse_poly, text)
    if f is not None:
        assert _finite([to_float(c) for c in f.terms.values()])
        assert _round_trips(f, format_poly, parse_poly)


def check_unitaries(text):
    units = _parse_or_reject(parse_unitaries, text)
    if units is not None:
        assert all(_finite(u) for u in units)
        assert _round_trips(units, format_unitaries, parse_unitaries)


def check_certificate(text):
    cert = _parse_or_reject(parse_certificate, text)
    if cert is not None:
        assert all(_finite(psi.amps) for psi in cert.states)
        assert all(_finite(t) for t in cert.final_targets if t is not None)
        assert _no_repeats(tuple(toks[:3]) for _, toks in content_lines(text)
                           if toks[0] == "state")
        assert _round_trips(cert, format_certificate, parse_certificate)


FORMATS = {
    "circuit": (CIRCUITS, check_circuit),
    "state": ([STATE], check_state),
    "poly": ([POLY], check_poly),
    "unitaries": ([UNITARIES], check_unitaries),
    "certificate": ([CERTIFICATE], check_certificate),
}


# The random properties below find, at 200 examples, these defects of the
# earlier per-format parsers: a repeated bitstring that overwrote the
# first (state); a `nan` coefficient (poly); nan/inf entries passing the
# unitarity test (unitaries); repeated `state` lines that overwrote
# (certificate).  The exhaustive single-mutation sweep finds those and
# the rest: a `nan` geta phase that parsed (circuit); `qubits -1` and
# `qubits 99999` leaking bare ValueErrors (unitaries); nan/inf amplitudes
# and target entries, and a dropped `target` line that made the parsed
# certificate unformattable (certificate).

def single_mutations(doc):
    """Every one-step mutation of ``doc``: each line dropped, duplicated
    or swapped with the next, and each token dropped, duplicated, swapped
    with the next or replaced by each of ``REPLACEMENTS``."""
    lines = [raw.split() for raw in doc.splitlines()]
    for i, toks in enumerate(lines):
        yield from [("drop-line", i, 0, 0), ("dup-line", i, 0, 0),
                    ("swap-lines", i, 0, i + 1)]
        for k in range(len(toks)):
            yield from [("drop-token", i, k, 0), ("dup-token", i, k, 0),
                        ("swap-tokens", i, k, k + 1)]
            yield from (("replace-token", i, k, j) for j in range(len(REPLACEMENTS)))


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_single_mutation(fmt):
    docs, check = FORMATS[fmt]
    for doc in docs:
        for op in single_mutations(doc):
            check(mutate(doc, [op]))


@settings(max_examples=200, deadline=None)
@given(doc=st.sampled_from(CIRCUITS), ops=OPS)
def test_fuzz_parse_circuit(doc, ops):
    check_circuit(mutate(doc, ops))


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_fuzz_parse_state(ops):
    check_state(mutate(STATE, ops))


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_fuzz_parse_poly(ops):
    check_poly(mutate(POLY, ops))


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_fuzz_parse_unitaries(ops):
    check_unitaries(mutate(UNITARIES, ops))


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_fuzz_parse_certificate(ops):
    check_certificate(mutate(CERTIFICATE, ops))


def test_mutate_applies_each_op():
    doc = "a b c\nd e\n"
    assert mutate(doc, [("drop-line", 0, 0, 0)]) == "d e\n"
    assert mutate(doc, [("dup-line", 1, 0, 0)]) == "a b c\nd e\nd e\n"
    assert mutate(doc, [("swap-lines", 0, 0, 1)]) == "d e\na b c\n"
    assert mutate(doc, [("drop-token", 0, 1, 0)]) == "a c\nd e\n"
    assert mutate(doc, [("dup-token", 1, 0, 0)]) == "a b c\nd d e\n"
    assert mutate(doc, [("swap-tokens", 0, 0, 2)]) == "c b a\nd e\n"
    assert mutate(doc, [("replace-token", 1, 1, 0)]) == "a b c\nd nan\n"


# ---- each command maps a mutated input to exit 2 ------------------------------


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _cli_case(command, tmp_path):
    """argv for ``command`` with one input file broken by a mutation, and
    the kind its parse error must name."""
    def bad(name, doc, *op):
        return _write(tmp_path, name, mutate(doc, [op]))

    circuit = _write(tmp_path, "c.qac", CIRCUITS[1])
    ancilla_circuit = _write(tmp_path, "anc.qac", (
        "qubits 3\ninputs 1\nancillas 1\nlayer 0.5\nu 0 H\nu 1 H\nu 2 H\n"
        "layer 1\ncz 0 1 2\nlayer 1.5\nu 0 H\n"))
    ancilla = "0 1.0 0.0\n"
    out = str(tmp_path / "out.txt")
    nan, inf, x, big = 0, 1, 3, 4  # indices into REPLACEMENTS
    return {
        "simulate": (["-c", bad("s.qac", CIRCUITS[1], "replace-token", 6, 1, nan),
                      "-i", "000"], "bad-eta"),
        "check-parity": (["-c", ancilla_circuit, "--ancilla",
                          bad("dup.state", ancilla, "dup-line", 0, 0, 0)],
                         "duplicate-entry"),
        "classify": (["-c", circuit, "--layer", "1", "--state",
                      bad("s.state", format_state(basis_state(3, "010")),
                          "replace-token", 0, 0, x)], "bad-bitstring"),
        "reduce": (["-c", bad("r.qac", CIRCUITS[0], "replace-token", 4, 1, big),
                    "-o", out], "bad-qubit"),
        "kill-parity": (["--unitaries",
                         bad("u.txt", UNITARIES, "replace-token", 2, 3, nan),
                         "--parity", "0", "-o", out], "bad-number"),
        "refute": (["-c", ancilla_circuit, "--ancilla",
                    bad("inf.state", ancilla, "replace-token", 0, 2, inf)],
                   "bad-number"),
        "verify-cert": (["-c", circuit, "--cert",
                         bad("cert.txt", CERTIFICATE, "dup-line", 2, 0, 0)],
                        "duplicate-entry"),
    }[command]


@pytest.mark.parametrize("command", ["simulate", "check-parity", "classify",
                                     "reduce", "kill-parity", "refute",
                                     "verify-cert"])
def test_cli_maps_mutated_input_to_exit_2(capsys, tmp_path, command):
    argv, kind = _cli_case(command, tmp_path)
    code = main([command, *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: line ")
    assert captured.err.rstrip().endswith(f"[{kind}]")
    assert not captured.out
    assert not (tmp_path / "out.txt").exists()
