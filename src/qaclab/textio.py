"""Shared reader for the line-oriented text formats (circuits, state
dumps, polynomials, unitaries, certificates).

``#`` starts a comment and blank lines are skipped.  Every parse failure
is a :class:`ParseError`, or a per-format subclass of it, whose message
reads ``line N: message [kind]``.  Numbers must be finite.
"""
import cmath


class ParseError(ValueError):
    """Malformed input text.  ``kind`` names the error class; ``line_no``
    is the offending line, or None for a document-level error."""

    def __init__(self, message, line_no=None, kind="syntax"):
        self.line_no = line_no
        self.kind = kind
        prefix = "" if line_no is None else f"line {line_no}: "
        super().__init__(f"{prefix}{message} [{kind}]")


def content_lines(text: str):
    """Yield ``(line_no, tokens)`` for each line that has tokens once its
    comment is cut; lines count from 1."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield line_no, tokens


def parse_int(tok, line_no, error=ParseError, *, lo=0, hi=None,
              what="integer", kind="bad-number") -> int:
    """An integer token within ``lo..hi`` (no upper bound if ``hi`` is None)."""
    try:
        value = int(tok)
    except ValueError:
        raise error(f"expected {what}, got {tok!r}", line_no, kind) from None
    if value < lo or (hi is not None and value > hi):
        raise error(f"{what} {value} out of range", line_no, kind)
    return value


def parse_complexes(tokens, count, line_no, error=ParseError, *,
                    what="number", kind="bad-number") -> list[complex]:
    """``count`` finite complex numbers from ``2 * count`` re/im tokens."""
    if len(tokens) != 2 * count:
        raise error(f"expected {2 * count} numbers, got {len(tokens)}",
                    line_no, kind)
    vals = []
    for k in range(0, len(tokens), 2):
        try:
            z = complex(float(tokens[k]), float(tokens[k + 1]))
        except ValueError:
            break
        if not cmath.isfinite(z):
            break
        vals.append(z)
    else:
        return vals
    for tok in tokens:  # name the first offending token
        try:
            value = float(tok)
        except ValueError:
            raise error(f"bad {what} {tok!r}", line_no, kind) from None
        if not cmath.isfinite(value):
            raise error(f"non-finite {what} {tok!r}", line_no, kind)


def format_complexes(values) -> str:
    """``re im`` tokens that :func:`parse_complexes` reads back exactly."""
    return " ".join(f"{float(v)!r}" for c in values for v in (c.real, c.imag))


def parse_bits(tok, width, line_no, error=ParseError) -> int:
    """A ``width``-character 0/1 string, qubit 0 leftmost, as its index."""
    if len(tok) != width or tok.strip("01"):
        raise error(f"expected a {width}-bit string, got {tok!r}", line_no,
                    "bad-bitstring")
    return int(tok, 2)
