"""Deterministic temperature sweep of the entropy pipeline.

The ``qubit-entropy`` entry point sweeps temperature for a fixed
circuit, reporting joint and marginal entropies for each requested
entropic index together with the truncation diagnostics.  Identical
configurations produce byte-identical output.

Exit codes: 0 success, 1 a sweep point or the write of the report
failed, 2 bad configuration.
"""
from __future__ import annotations

import argparse
import math
import numbers
import os
import re
import stat
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cache, cached_property, lru_cache

import numpy as np

from . import __version__
from .entropy import bipartite_entropies
from .model import FrequencyMethod, NormalModes, normal_modes
from .state import thermal_spectra, thermal_weights, validity_diagnostics
from .transform import build_transform, leading_positions

__all__ = ["Sweep", "SweepConfig", "SweepError", "emit", "main", "parse_config", "run_sweep"]

# The sweep evaluates temperatures, and the writer renders the rows of
# temperatures, in chunks of at most this many bytes.  The sweep counts
# 8 * (levels_small**4 + levels_big**2) per temperature, for the two
# parity blocks of sqrt(w) U at levels_small (levels_small**4 / 2 values)
# and their rows before sorting, and the levels-big weight row.  The
# kept-block products of validity_diagnostics stack about
# levels_small**2 * levels_big**2 / 2 more values per temperature, up to
# 8 times the count above (reached at levels-big 32).  The spectra copy
# the blocks of sqrt(w) U end to end once, and one take of that copy per
# column parity reads the marginal factors, which go to their SVD call as
# read.  The writer counts CELL_BYTES per slot of a row: a cell per column
# and, in JSON, per separator.  Larger chunks save little, cost memory.
CHUNK_BYTES = 256 * 1024

# The largest array of the levels-big transform is the product of two
# eigenfunction tables its first matrix product sums, levels_big^2 rows on
# levels_big x (2 * levels_big - 1) quadrature nodes, growing as
# levels_big^4: 17 MB at this limit, 26 GB at levels-big 200.
MAX_LEVELS_BIG = 32

# --method and the config key method are accepted and ignored: the
# transform is built by the one quadrature route.
METHODS = ("closed-form", "quadrature")

CSV_COLUMNS = (
    "T",
    "q",
    "S_joint",
    "S_1",
    "S_2",
    "I",
    "margin",
    "mu_I",
    "mu_II",
    "offdiag_sum",
)


class SweepError(RuntimeError):
    """A sweep point failed; the message names the failing (T, q)."""


@dataclass(frozen=True, eq=False)
class Sweep:
    """The columns of one sweep.

    ``entropies`` has shape ``(len(q_values), 4, k)`` and holds
    ``(S_joint, S_1, S_2, I)`` per q; ``diagnostics`` has shape ``(3, k)``
    and holds ``(mu_I, mu_II, offdiag_sum)``, which depend on T only.
    """

    temperatures: np.ndarray
    q_values: tuple[float, ...]
    entropies: np.ndarray
    diagnostics: np.ndarray


@dataclass(frozen=True)
class SweepConfig:
    """Sweep settings, checked whenever built: a bad value raises ValueError."""

    lam: float = 1.5
    g: float = 0.1
    t_min: float = 0.01
    t_max: float = 0.5
    t_steps: int = 50
    t_scale: str = "linear"
    q_values: tuple[float, ...] = (0.5, 0.8, 1.0, 1.5, 2.0)
    levels_small: int = 2
    levels_big: int = 6
    output_format: str = "csv"
    output: str | None = None
    frequencies: str = "small-angle"

    @cached_property
    def modes(self) -> NormalModes:
        """Normal modes of the circuit by the frequency method, built once per config."""
        return normal_modes(self.lam, self.g, FrequencyMethod(self.frequencies))

    def __post_init__(self) -> None:
        for name, value in (
            ("lambda", self.lam), ("g", self.g),
            ("t-min", self.t_min), ("t-max", self.t_max),
        ):
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if isinstance(self.q_values, (str, bytes)) or not isinstance(self.q_values, Sequence):
            raise ValueError(f"q values must be a sequence of numbers, got {self.q_values!r}")
        if not all(isinstance(q, numbers.Real) for q in self.q_values):
            raise ValueError(f"q values must be numbers, got {self.q_values!r}")
        if not all(math.isfinite(q) for q in self.q_values):
            raise ValueError("q values must be finite")
        # a list is kept as a tuple, so the frozen config hashes
        object.__setattr__(self, "q_values", tuple(self.q_values))
        for name in ("t_steps", "levels_small", "levels_big"):
            if not isinstance(value := getattr(self, name), numbers.Integral):
                raise ValueError(f"{name.replace('_', '-')} must be an integer, got {value}")
        if self.t_min <= 0:
            raise ValueError("t-min must be positive")
        if self.t_max <= self.t_min:
            raise ValueError("t-max must exceed t-min")
        if self.t_steps < 2:
            raise ValueError("t-steps must be at least 2")
        if self.t_scale not in ("linear", "log"):
            raise ValueError(f"unknown t-scale {self.t_scale!r}")
        if not self.q_values:
            raise ValueError("at least one q value is required")
        if any(q <= 0 for q in self.q_values):
            raise ValueError("q values must be positive")
        if self.levels_small < 2:
            raise ValueError("levels-small must be at least 2")
        if self.levels_big <= self.levels_small:
            raise ValueError("levels-big must exceed levels-small")
        if self.levels_big > MAX_LEVELS_BIG:
            raise ValueError(f"levels-big must be at most {MAX_LEVELS_BIG}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.output_format!r}")
        self.modes  # a circuit without modes by the method: bad configuration
        if self.output is not None and not isinstance(self.output, (str, os.PathLike)):
            raise ValueError(f"--output must be a path, got {self.output!r}")
        if self.output == "":
            raise ValueError("--output must name a file")
        if not os.path.isdir(os.path.dirname(self.output or "") or "."):
            raise ValueError(f"the directory of --output {self.output} does not exist")
        if self.output is not None and os.path.isdir(self.output):
            raise ValueError(f"--output {self.output} is a directory")


# SweepConfig's field names, in order: parse_config reads one value each
_FIELD_NAMES = tuple(f.name for f in fields(SweepConfig))


def _parse_q_list(text: str) -> tuple[float, ...]:
    # an empty list parses; building the SweepConfig rejects it
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        message = f"could not parse q list from {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _config_file_flags(path: str) -> list[str]:
    """The ``--key=value`` token of each ``key = value`` line of a config file;
    a key is any flag the parser recognizes but ``--config`` and ``--help``."""
    tokens = []
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            # a comment starts at a "#" that opens the line or follows
            # whitespace, so a value such as run#1.csv is kept whole
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("_", "-")
            token = f"--{key}={value}"
            try:
                unknown = key in ("config", "help") or _parser().parse_known_args([token])[1]
            except argparse.ArgumentError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if unknown:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            tokens.append(token)
    return tokens


@cache
def _parser() -> argparse.ArgumentParser:
    """The flag parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qubit-entropy",
        description="Temperature sweep of two-mode thermal entropies.",
        allow_abbrev=False,
        exit_on_error=False,
    )
    parser.add_argument("--lambda", dest="lam", type=float, help="bare frequency ratio")
    parser.add_argument("--g", type=float, help="coupling strength")
    parser.add_argument("--t-min", type=float, help="lowest temperature")
    parser.add_argument("--t-max", type=float, help="highest temperature")
    parser.add_argument("--t-steps", type=int, help="number of temperatures")
    parser.add_argument("--t-scale", choices=("linear", "log"), help="grid spacing")
    parser.add_argument(
        "--q", dest="q_values", type=_parse_q_list,
        help="comma-separated entropic indices",
    )
    parser.add_argument("--levels-small", type=int, help="levels per mode for entropies")
    parser.add_argument("--levels-big", type=int, help="levels per mode for diagnostics")
    parser.add_argument("--method", choices=METHODS, help="accepted and ignored")
    parser.add_argument(
        "--frequencies", choices=[method.value for method in FrequencyMethod],
        help="normal-mode frequency method",
    )
    parser.add_argument("--format", dest="output_format", choices=("csv", "json"))
    parser.add_argument("--output", type=str, help="output path (default stdout)")
    parser.add_argument("--config", type=str, help="flat key = value config file")
    parser.set_defaults(**{f.name: f.default for f in fields(SweepConfig)})
    return parser


def parse_config(argv: list[str] | None = None) -> SweepConfig:
    """Build a SweepConfig from flags and an optional config file.

    Each config-file line is parsed as its flag, placed before the
    command line, so flags override file values, which override
    defaults.  A bad flag or file, and any check of SweepConfig that
    fails, a circuit outside the small-angle regime included, terminate
    with exit code 2.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = parser.parse_args(_config_file_flags(args.config) + argv)
        config = SweepConfig(**{name: getattr(args, name) for name in _FIELD_NAMES})
    except (argparse.ArgumentError, OSError, ValueError) as exc:
        parser.error(str(exc))
    return config


def _temperature_grid(config: SweepConfig) -> np.ndarray:
    if config.t_scale == "log":
        # np.geomspace's arithmetic, bit for bit, without its argument
        # handling: powers of ten of a linear grid of logs, ends pinned
        grid = 10.0 ** np.linspace(
            np.log10(config.t_min), np.log10(config.t_max), config.t_steps
        )
        grid[0], grid[-1] = config.t_min, config.t_max
        return grid
    return np.linspace(config.t_min, config.t_max, config.t_steps)


def run_sweep(config: SweepConfig) -> Sweep:
    """Compute the sweep columns over the (T, q) grid.

    One transform tensor is built, at levels_big, and reused across the
    grid, which is evaluated in chunks of temperatures (see CHUNK_BYTES);
    the columns do not depend on the chunking.  Each levels_small parity
    block is the leading block of the levels_big one, its rows and columns
    of levels below levels_small: an overlap does not depend on the
    truncation, and the order-(2*levels_big - 1) rule is exact for every
    lower level, so the blocks equal a levels_small build to rounding.
    """
    d_big, d_s = config.levels_big, config.levels_small
    u_big = build_transform(config.modes, d=d_big)
    u_small = tuple(
        block.take(kept, axis=0).take(kept, axis=1)
        for block, kept in zip(u_big, leading_positions(d_big, d_s))
    )
    grid = _temperature_grid(config)
    step = max(1, CHUNK_BYTES // (8 * (d_s**4 + d_big**2)))
    diagnostics, entropies = [], []
    for start in range(0, len(grid), step):
        temps = grid[start:start + step]
        try:
            diag, by_q = _sweep_chunk(config, u_small, u_big, temps)
        except SweepError:
            # name the first failing temperature of the chunk
            for k in range(len(temps)):
                _sweep_chunk(config, u_small, u_big, temps[k:k + 1])
            raise
        diagnostics.append(diag)
        entropies.append(by_q)
    return Sweep(
        temperatures=grid,
        q_values=config.q_values,
        entropies=np.concatenate(entropies, axis=2),
        diagnostics=np.concatenate(diagnostics, axis=1),
    )


def _sweep_chunk(
    config: SweepConfig, u_small: tuple, u_big: tuple, temps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Columns for a chunk of temperatures, every stage stacked over the
    chunk, from the parity blocks of the levels_small and levels_big U.

    Returns the diagnostics ``(mu_I, mu_II, offdiag_sum)`` with shape
    ``(3, k)`` and, per q, ``(S_joint, S_1, S_2, margin)`` with shape
    ``(len(q_values), 4, k)``.
    """
    current_q: float | None = None
    try:
        weights = thermal_weights(config.modes, temps, config.levels_big)
        diag = validity_diagnostics(weights, u_big, config.levels_small)
        small = thermal_weights(config.modes, temps, config.levels_small)
        joint_spectra, marginal_spectra = thermal_spectra(small, u_small)
        by_q = []
        for q in config.q_values:
            current_q = q
            by_q.append(bipartite_entropies(joint_spectra, marginal_spectra, q))
    except Exception as exc:
        if len(temps) == 1:
            where = f"T={temps[0]:.12g}"
        else:
            where = f"T in [{temps[0]:.12g}, {temps[-1]:.12g}]"
        if current_q is not None:
            where += f", q={current_q:.12g}"
        raise SweepError(f"sweep failed at {where}: {exc}") from exc
    return np.array(diag), np.array(by_q)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _header_lines(config: SweepConfig) -> list[str]:
    q_text = ",".join(_fmt(q) for q in config.q_values)
    return [
        f"# qubit-entropy {__version__}",
        f"# lambda={_fmt(config.lam)} g={_fmt(config.g)}",
        f"# frequencies={config.frequencies} phi={_fmt(config.modes.phi)}",
        f"# t_min={_fmt(config.t_min)} t_max={_fmt(config.t_max)}"
        f" t_steps={config.t_steps} t_scale={config.t_scale}",
        f"# q={q_text} levels_small={config.levels_small} levels_big={config.levels_big}",
    ]


def emit(sweep: Sweep, config: SweepConfig) -> None:
    """Write the sweep to config.output (stdout if unset) as CSV or JSON.

    Both hold one row per (T, q) grid point, T-major, with the values of
    CSV_COLUMNS.  CSV carries the configuration in leading ``#`` comments
    and prints every value with 12 significant digits; JSON is a bare
    array of row objects keyed by CSV_COLUMNS with the same rounding, laid
    out as ``json.dumps(rows, indent=2)`` would lay it out.  Line endings
    are LF.

    An existing output file is overwritten in place and then cut to the
    report's length, so it ends with the same bytes ``open(path, "w")``
    would leave, also when a write or the final flush fails midway (the
    prefix the kernel accepted); a new file gets mode ``0o666 & ~umask``.
    Two cases differ.  A process killed mid-write (SIGKILL, not an
    exception) leaves the new prefix followed by the old tail, not the new
    prefix alone.  An operating-system crash or power loss soon after a
    rewrite can leave a file of the new length that mixes old and new
    blocks, where a file truncated to zero first would read as the new
    report or as empty: the overwritten blocks are not ordered against the
    journaled change of length.
    """
    if config.output is None:
        _write(sweep, config, sys.stdout)
    else:
        # No O_TRUNC: a non-empty file truncated to zero and rewritten is
        # flushed on close by ext4 (auto_da_alloc), which costs several
        # times the rewrite of a report of a few KB.
        fd = os.open(config.output, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            try:
                _write(sweep, config, handle)
                handle.flush()
            finally:
                # Cut a longer old report at the offset the kernel accepted,
                # also after a failed write or flush; what is still buffered
                # after an exception goes on close to that offset.  A new or
                # equally long file is left alone: ext4 journals even a
                # truncate to the file's own length.  /dev/null and FIFOs
                # cannot be truncated.
                info = os.fstat(fd)
                if stat.S_ISREG(info.st_mode):
                    end = os.lseek(fd, 0, os.SEEK_CUR)
                    if info.st_size > end:
                        os.ftruncate(fd, end)


# A rendered cell is the text of one number among zero bytes, in columns
# 0 the sign, 1-5 a "0.000" prefix, 6-28 the 12 digits in the even columns
# and a "." slot after each in the odd ones, 29-32 "e+XX", 33-34 JSON's
# ".0".  A CSV cell's last byte holds the separator that follows it.
CELL_BYTES = 35


@cache
def _cell_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The renderer's tables, built once per process.

    - ``powers``: the correctly rounded ``10**(11 - e)`` at index ``e + 99``.
    - ``triples``: per group g in 0..999 of three digits, its digits
      interleaved with 0xFF in the "." slots after them, as one 6-byte item.
    - ``templates``: per format (CSV, JSON), the bytes of ``%.12g``'s layout
      for each exponent e in [-99, 99] and count s of significant digits,
      at ``(e + 99) * 12 + s - 1``, with 0xFF in the digit columns it
      shows and 0 in those it drops.
    """
    powers = np.array([float(f"1e{11 - e}") for e in range(-99, 100)])
    group = np.arange(1000)
    triples = np.full((1000, 6), 0xFF, dtype=np.uint8)
    triples[:, ::2] = 48 + np.stack([group // 100, group // 10 % 10, group % 10], axis=1)
    exponent = np.repeat(np.arange(-99, 100), 12)
    significant = np.tile(np.arange(1, 13), 199)
    fixed = (exponent >= -4) & (exponent < 12)
    # digits before the point: all integer digits are shown, zeros included
    whole = np.where(fixed, exponent + 1, 1)
    shown = np.maximum(significant, whole)
    templates = np.zeros((2, len(exponent), CELL_BYTES), dtype=np.uint8)
    templates[:, :, 6:29:2] = np.where(np.arange(1, 13) <= shown[:, None], 0xFF, 0)
    point = np.flatnonzero((whole >= 1) & (shown > whole))
    templates[:, point, 5 + 2 * whole[point]] = ord(".")
    leading = fixed & (exponent < 0)
    templates[:, leading, 1:6] = np.where(
        np.arange(5) < 1 - exponent[leading, None], np.frombuffer(b"0.000", np.uint8), 0
    )
    power = exponent[~fixed]
    templates[:, ~fixed, 29:33] = np.stack([
        np.full_like(power, ord("e")), np.where(power < 0, ord("-"), ord("+")),
        48 + abs(power) // 10, 48 + abs(power) % 10,
    ], axis=1)
    # JSON spells an integral value as a float
    templates[1, fixed & (shown == whole), 33:] = np.frombuffer(b".0", np.uint8)
    tables = powers, triples.view("V6").ravel(), templates
    for table in tables:
        table.flags.writeable = False
    return tables


def _render(values: np.ndarray, as_json: bool) -> np.ndarray:
    """``_fmt`` of every value of a flat array or, for JSON, the JSON text of
    each value rounded as ``_fmt`` rounds it: row i of the returned
    ``(len(values), CELL_BYTES)`` uint8 array holds the text of value i
    among zero bytes.

    The 12 digits are those of ``m = |v| * 10**(11 - e)`` rounded to an
    integer, e the decimal exponent, and each text is the template of its
    (e, s) with the digits and the sign laid in.  m errs by under 2e-4,
    from the correctly rounded power and the product, so its rounding is
    exact unless m lies within 5e-4 of a tie.  Those cells take Python's
    spelling, as do values outside ``1e-98 <= |v| < 1e98`` but 0
    (subnormals, NaN and infinities among them) and, for JSON,
    ``|v| >= 1e11``, where ``repr`` writes positionally what ``%.12g``
    writes with an exponent.  A JSON number is otherwise the ``%.12g``
    text, with ".0" on an integer: a normal double below 1e11 is recovered
    from its 12 digits, and its ``repr`` picks the same digits and notation.
    """
    powers, triples, templates = _cell_tables()
    size = np.abs(values)
    normal = (size >= 1e-98) & (size < (1e11 if as_json else 1e98))
    scaled = np.where(normal, size, 1.0)
    exponent = np.floor(np.log10(scaled)).astype(np.intp)
    m = scaled * powers.take(exponent + 99)
    rounded = np.rint(m)
    # log10 may be one off next to a power of ten, leaving m outside
    # [1e11, 1e12): those cells fall back too
    fast = normal & (np.abs(m - rounded) < 0.4995) & (m >= 1e11) & (m < 1e12)
    carry = rounded == 1e12
    exponent += carry
    rounded[carry] = 1e11
    rounded *= fast  # zero, and the cells that fall back, take 12 zeros
    # the digits by groups of three, in the columns of a cell's digits
    whole = rounded.astype(np.intp)
    groups = np.empty((len(values), 4), dtype=np.intp)
    groups[:, 0], whole = np.divmod(whole, 10**9)
    groups[:, 1], whole = np.divmod(whole, 10**6)
    groups[:, 2], groups[:, 3] = np.divmod(whole, 1000)
    digits = triples.take(groups).view(np.uint8).reshape(-1, 24)
    # the significant digits end at the last digit that is not "0"; a zero
    # takes the template of "0": e = 0, one digit
    significant = 12 - np.argmax(digits[:, -2::-2] != ord("0"), axis=1)
    key = np.where(fast, (exponent + 99) * 12 + significant - 1, 99 * 12)
    cells = templates[int(as_json)].take(key, axis=0)
    cells[:, 6:30] &= digits
    cells[:, 0] = np.signbit(values) * np.uint8(ord("-"))
    fallback = np.flatnonzero(~fast & (size != 0))
    if len(fallback):
        texts = [_fmt(value) for value in values[fallback].tolist()]
        if as_json:
            import json  # only here: a CSV run never loads it

            texts = [json.dumps(float(text)) for text in texts]
        padded = "".join(text.ljust(CELL_BYTES, "\0") for text in texts).encode()
        cells[fallback] = np.frombuffer(padded, np.uint8).reshape(len(fallback), CELL_BYTES)
    return cells


# The text around the cells of a JSON row, one more than CSV_COLUMNS: a
# row is separator 0, cell 0, separator 1, ..., the last cell, the last
# separator, and opens with the comma that follows the previous one.  A
# CSV cell is followed by "," or, the last of its row, by a newline.
_JSON_SEPARATORS = tuple(
    ("," if i else ",\n  {") + f'\n    "{key}": ' for i, key in enumerate(CSV_COLUMNS)
) + ("\n  }",)

# The JSON separators as rendered cells, one zero-padded row each, read-only
# as a view of bytes.
_JSON_SEPARATOR_CELLS = np.frombuffer(
    "".join(text.ljust(CELL_BYTES, "\0") for text in _JSON_SEPARATORS).encode(), np.uint8
).reshape(len(_JSON_SEPARATORS), CELL_BYTES)


@lru_cache(maxsize=8)
def _cell_index(n_q: int, k: int, as_json: bool) -> np.ndarray:
    """Per temperature and q, the positions of a row's slots among a block's
    rendered cells: the q values, the k temperatures, the entropies in
    ``(q, 4, k)`` order and the diagnostics in ``(3, k)`` order, one slot
    per column of CSV_COLUMNS, margin taking the cell of I.  JSON rows put
    the separators, rendered ahead of the cells, between the slots."""
    # column j of the row of temperature t and q index i takes the cell
    # start[j] + t * per_t[j] + i * per_q[j]
    entropies = n_q + k + k * np.array([0, 1, 2, 3, 3])
    diagnostics = n_q + k + 4 * n_q * k + k * np.arange(3)
    start = np.concatenate([[n_q, 0], entropies, diagnostics])
    per_t = np.array([1, 0] + [1] * 8)
    per_q = np.array([0, 1] + [4 * k] * 5 + [0] * 3)
    index = start + np.arange(k)[:, None, None] * per_t + np.arange(n_q)[:, None] * per_q
    if as_json:
        cells = index + len(_JSON_SEPARATORS)
        index = np.empty((k, n_q, len(CSV_COLUMNS) + len(_JSON_SEPARATORS)), dtype=np.intp)
        index[..., 0::2] = np.arange(len(_JSON_SEPARATORS))
        index[..., 1::2] = cells
    index.flags.writeable = False
    return index


def _write(sweep: Sweep, config: SweepConfig, stream) -> None:
    # Each distinct number is rendered once per block of temperatures: q
    # per value, T and the diagnostics per T and the entropies per (T, q);
    # margin reuses I.  A block's rows are one take of their slots from the
    # rendered cells, whose zero bytes one translate drops.  A block holds
    # as many temperatures as CHUNK_BYTES of slots.
    as_json = config.output_format == "json"
    if as_json:
        stream.write("[")
    else:
        for line in _header_lines(config):
            stream.write(line + "\n")
        stream.write(",".join(CSV_COLUMNS) + "\n")
    n_t, n_q = len(sweep.temperatures), len(sweep.q_values)
    slots = len(CSV_COLUMNS) + len(_JSON_SEPARATORS) if as_json else len(CSV_COLUMNS)
    step = max(1, CHUNK_BYTES // (n_q * slots * CELL_BYTES))
    q_values = np.asarray(sweep.q_values, dtype=float)
    for start in range(0, n_t, step):
        stop = min(start + step, n_t)
        k = stop - start
        cells = _render(np.concatenate([
            q_values,
            sweep.temperatures[start:stop],
            sweep.entropies[:, :, start:stop].ravel(),
            sweep.diagnostics[:, start:stop].ravel(),
        ]), as_json)
        if as_json:
            cells = np.concatenate([_JSON_SEPARATOR_CELLS, cells])
        else:
            # the last byte of a CSV cell is free; offdiag_sum, rendered
            # last, ends its row
            cells[:, -1] = ord(",")
            cells[-k:, -1] = ord("\n")
        rows = cells.take(_cell_index(n_q, k, as_json), axis=0)
        text = rows.tobytes().translate(None, b"\0").decode("ascii")
        # the first JSON row follows "[" with no comma
        stream.write(text[1:] if as_json and start == 0 else text)
    if as_json:
        stream.write("\n]\n")


def main(argv: list[str] | None = None) -> int:
    config = parse_config(argv)
    try:
        sweep = run_sweep(config)
        emit(sweep, config)
    except Exception as exc:
        print(f"qubit-entropy: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
