"""Exception hierarchy shared by all replaycm modules.

Every error carries a stable machine-readable ``category`` so the CLI can
emit single-line, parseable diagnostics.  ``ascii_lines`` is the one reader
of the toolkit's text files (protocols, score files, feature manifests), so
that a stray byte in any of them is a ``ParseError`` too.  ``atomic_open``
is the one writer of WAVs, protocols, checkpoints, score files, grams,
feature manifests and training logs, so that a failed or killed write never
leaves one half written.
"""

import os
from contextlib import contextmanager
from pathlib import Path


class ReplayCmError(Exception):
    category = "error"


class FormatError(ReplayCmError):
    """Malformed file header or structure."""

    category = "format"


class UnsupportedError(ReplayCmError):
    """Well-formed but unsupported encoding (e.g. 24-bit or stereo WAV)."""

    category = "unsupported"


class ParameterError(ReplayCmError):
    """Invalid argument value (aliasing, empty input, bad config)."""

    category = "parameter"


class ShapeError(ReplayCmError):
    """Tensor/array shape mismatch; message includes both shapes."""

    category = "shape"


class ContractError(ReplayCmError):
    """Violated numeric precondition (e.g. unnormalized log-probabilities)."""

    category = "contract"


class DataError(ReplayCmError):
    """Missing or inconsistent corpus data; names the offending utt_id."""

    category = "data"


class MetricError(ReplayCmError):
    """Metric undefined for the given records (e.g. single-class input)."""

    category = "metric"


class AlignmentError(ReplayCmError):
    """Score sets disagree on utterance ids; lists the symmetric difference."""

    category = "alignment"


class NumericError(ReplayCmError):
    """Numerical procedure failed to converge."""

    category = "numeric"


class TrainingError(ReplayCmError):
    """Non-finite gradient or other training-time failure."""

    category = "training"


class InternalError(ReplayCmError):
    """Invariant broken inside the library (e.g. NaN after smoothing floor)."""

    category = "internal"


class ParseError(ReplayCmError):
    """Malformed text line in a protocol or score file, or a non-ASCII byte
    in any text file; names the line number.  A malformed feature-manifest
    line is a FormatError."""

    category = "parse"


def ascii_lines(path):
    """Yield (line number, stripped line) for each non-blank line of an ASCII
    text file; a non-ASCII byte is a ParseError naming the file and line."""
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("ascii").strip()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: non-ASCII byte {raw[exc.start]:#04x}") from exc
        if line:
            yield lineno, line


@contextmanager
def atomic_open(path, mode, **kwargs):
    """Open a temporary file beside ``path`` for writing; when the block ends
    without an exception it is renamed onto ``path`` in one step, and when it
    raises it is removed and ``path`` keeps what it held.  A process killed
    mid-write leaves at most the temporary file, never a partial ``path``.
    The rename is atomic, not durable: nothing is flushed to disk.  A failed
    open or rename names ``path``, the file asked for, not the temporary."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise
