"""Network data model and case-file ingestion.

A Network is an immutable graph of buses and lines in per unit. Lines in
the lossless model carry a single positive parameter b (the negated series
susceptance); lossy lines additionally carry a conductance g. Injections
follow the generation-positive sign convention, so loads are negative.
"""
from __future__ import annotations

import copy
import enum
import functools
import json
import math
import re
import warnings
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .errors import ParseError


class BusKind(enum.Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"


@dataclass(frozen=True)
class Bus:
    id: int
    kind: BusKind
    p_inj: float = 0.0
    q_inj: float = 0.0
    v_set: float = 1.0


@dataclass(frozen=True)
class Line:
    i: int  # from-bus id
    j: int  # to-bus id
    b: float  # negated series susceptance, > 0
    g: float = 0.0  # conductance, >= 0 (0 when lossless)


# Largest |b|, |g|, |p| or |q| a network accepts, in per unit. The bundled
# cases stay below 250 (ieee118's stiffest line); far larger values only
# overflow or make the domain matrix singular downstream.
MAX_MAGNITUDE = 1e6

# A network's kinds array holds positions in this tuple: 0 slack, 1 PV, 2 PQ.
_KIND_CODES = tuple(BusKind)


class Network:
    """Immutable network held as arrays, buses in input order: the state is
    ids (a tuple of Python ints), kinds (0 slack, 1 PV, 2 PQ), p_inj, q_inj,
    v_set, edges ((m, 2) end positions per line), b and g. The buses and
    lines views build Bus and Line records on each access. Every injection
    and line parameter must be finite and at most MAX_MAGNITUDE in absolute
    value; _set_injections and _set_lines raise ParseError otherwise.

    Derived attributes:
      index          position of each bus id
      pq, pv, ns     index arrays of PQ, PV and non-slack buses
      slack_index    position of the slack bus, slack its id
      y              per-line series admittance g - jb
      b_total        per-bus sum of incident b (B_i)
      lossy_ratio    g/b when uniform across lines (0.0 when lossless),
                     None when the ratio varies
      unit_setpoints whether every slack/PV set-point is 1 (the energy's gate)
      pq_index_of    position of each bus among the PQ buses, -1 elsewhere
      pq_ends        (m, 2) PQ position of each line end, -1 at a fixed end
      active         lines with a PQ end, the ones in the domain matrix
      derived(build) memo of build(network), shared by scale_injections
    """

    def __init__(self, buses, lines):
        buses, lines = tuple(buses), tuple(lines)
        if not buses:
            raise ParseError("network has no buses")
        ids = self.ids = tuple(b.id for b in buses)
        index = self.index = {bid: k for k, bid in enumerate(ids)}
        if len(index) != len(ids):
            raise ParseError("duplicate bus ids")
        kinds = self.kinds = np.array([_KIND_CODES.index(b.kind) if isinstance(b.kind, BusKind)
                                       else -1 for b in buses])
        _raise_first(lambda k: f"bus {ids[k]}", ((kinds < 0, "kind must be a BusKind, got {!r}"),),
                     [b.kind for b in buses])
        slack = np.flatnonzero(kinds == 0)
        if len(slack) != 1:
            raise ParseError(f"expected exactly one slack bus, found {len(slack)}")
        n = self.n_bus = len(ids)
        self.slack_index = int(slack[0])
        self.slack = ids[self.slack_index]
        self.pq, self.pv, self.ns = (np.flatnonzero(kinds == 2), np.flatnonzero(kinds == 1),
                                     np.flatnonzero(kinds))
        self._set_injections(*np.array([[b.p_inj for b in buses], [b.q_inj for b in buses],
                                        [b.v_set for b in buses]], dtype=float))
        ends = np.array([[index.get(ln.i, -1) for ln in lines],
                         [index.get(ln.j, -1) for ln in lines]], dtype=int)
        # Line k repeats a pair when the pair first appears before k: code
        # each sorted end pair as one integer (negative for an unknown end)
        # and compare neighbours in a stable sort, which keeps first
        # appearances first.
        lo, hi = np.sort(ends, axis=0)
        code = lo * n + hi
        order = np.argsort(code, kind="stable")
        repeat = np.zeros(len(lines), dtype=bool)
        repeat[order[1:]] = code[order[1:]] == code[order[:-1]]
        # Column-major, so each end column edges[:, 0], edges[:, 1] is
        # contiguous: the per-line gathers by it run at full speed.
        self.edges = ends.T
        self._set_lines(*np.array([[ln.b for ln in lines], [ln.g for ln in lines]]),
                        lambda k: f"line {lines[k].i}-{lines[k].j}",
                        ((ends < 0).any(axis=0), "unknown bus id"),
                        (ends[0] == ends[1], "self loop"),
                        duplicate=repeat)
        self._check_connected()
        self.pq_index_of = np.full(n, -1, dtype=int)
        self.pq_index_of[self.pq] = np.arange(len(self.pq))
        self.pq_ends = self.pq_index_of[ends].T
        self.active = np.flatnonzero(self.pq_ends.max(axis=1) >= 0)

    def _set_injections(self, p, q, v) -> None:
        """Check the injections and set-points, naming the first bad bus by
        its id, and set them."""
        # (x > 0) & (x < inf) is False for NaN: positive and finite.
        _raise_first(lambda k: f"bus {self.ids[k]}", (
            (~(np.isfinite(p) & np.isfinite(q)), "non-finite injection"),
            (np.maximum(abs(p), abs(q)) > MAX_MAGNITUDE,
             f"injection beyond {MAX_MAGNITUDE:g} per unit"),
            (~((self.kinds == 2) | (v > 0) & (v < np.inf)),
             "voltage set-point must be positive and finite")))
        self.p_inj, self.q_inj, self.v_set = p, q, v
        self.unit_setpoints = bool((v[self.kinds != 2] == 1.0).all())

    def _set_lines(self, b, g, name=None, *ends, duplicate=False) -> None:
        """Check and set the line parameters, y, b_total and lossy_ratio, and
        start a fresh derived memo. A fault names line k by name(k), or by
        its end ids; the ends checks come first, the duplicate check last."""
        _raise_first(name or (lambda k: "line {}-{}".format(*map(self.ids.__getitem__,
                                                                  self.edges[k]))), (
            *ends,
            (~(b > 0), "b must be positive, got {}"),
            (b == np.inf, "b must be positive and finite, got {}"),
            (~((g >= 0) & (g < np.inf)), "g must be finite and nonnegative"),
            (np.maximum(b, g) > MAX_MAGNITUDE,
             f"b and g must be at most {MAX_MAGNITUDE:g} per unit"),
            (duplicate, "duplicate pair (merge parallel lines first)")), b)
        self.b, self.g, self.y = b, g, g - 1j * b
        # Every bus sums its from-ends, then its to-ends, in line order.
        self.b_total = np.bincount(self.edges.ravel(order="F"), np.concatenate((b, b)),
                                   self.n_bus)
        ratios = g / b
        self.lossy_ratio = float(ratios[0]) if g.any() else 0.0
        if np.max(np.abs(ratios - self.lossy_ratio), initial=0.0) > 1e-9:
            self.lossy_ratio = None
        self._derived = {}

    @property
    def buses(self) -> tuple[Bus, ...]:
        """The buses as records, built on each access."""
        return tuple(map(Bus, self.ids, map(_KIND_CODES.__getitem__, self.kinds.tolist()),
                         self.p_inj.tolist(), self.q_inj.tolist(), self.v_set.tolist()))

    @property
    def lines(self) -> tuple[Line, ...]:
        """The lines as records, built on each access."""
        return tuple(Line(self.ids[f], self.ids[t], b, g) for (f, t), b, g
                     in zip(self.edges.tolist(), self.b.tolist(), self.g.tolist()))

    def derived(self, build):
        """build(self), made once for every network that scale_injections
        makes from this one: build may read the line arrays and the bus
        kinds only, and callers must not modify what it returns."""
        memo = self._derived
        if build not in memo:
            memo[build] = build(self)
        return memo[build]

    def _check_connected(self):
        """Spread from the slack bus along every line at once, until no
        line leads anywhere new."""
        ends, across = self.edges.ravel(order="F"), self.edges[:, ::-1].ravel(order="F")
        seen = np.arange(self.n_bus) == self.slack_index
        while len(new := across[seen[ends] & ~seen[across]]):
            seen[new] = True
        if not seen.all():
            missing = [self.ids[k] for k in np.flatnonzero(~seen)]
            raise ParseError(f"network is disconnected; unreachable buses {missing}")

    def __repr__(self):
        return (f"Network(n_bus={self.n_bus}, n_line={len(self.b)}, "
                f"slack={self.slack})")


def _raise_first(name, checks, values=()) -> None:
    """Raise ParseError for the first position k, in input order, that fails
    any check, naming its first failing check. checks holds (failing mask,
    message) pairs in the order a position is tested; the message is
    prefixed by name(k) and may format values[k] as {}."""
    bad = checks[0][0]
    for mask, _ in checks[1:]:
        bad = bad | mask
    if bad.any():
        k = int(np.argmax(bad))
        message = next(message for mask, message in checks if mask[k])
        raise ParseError(f"{name(k)}: {message.format(*values[k:k + 1])}")


def _merge_parallel(lines) -> list[Line]:
    merged: dict[frozenset, Line] = {}  # in order of first appearance
    for ln in lines:
        key = frozenset((ln.i, ln.j))
        old = merged.get(key)
        merged[key] = ln if old is None else replace(old, b=old.b + ln.b, g=old.g + ln.g)
    return list(merged.values())


# ---------------------------------------------------------------------------
# native JSON format

_KINDS = {"slack": BusKind.SLACK, "pv": BusKind.PV, "pq": BusKind.PQ}


def _whole(v, where: str) -> int:
    """v as an int; ParseError at where unless v is a whole number."""
    if type(v) is int or isinstance(v, float) and v.is_integer():
        return int(v)
    raise ParseError(f"{where}: expected an integer, got {v!r}")


def _real(v, where: str) -> float:
    """float(v); ParseError at where for a JSON boolean or string, which
    float() would read as 0 or 1 or parse, and for an integer beyond the
    float range."""
    if isinstance(v, (bool, str)):
        raise ParseError(f"{where}: expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _kind(v, where: str) -> BusKind:
    """The bus kind named v; ParseError at where for anything else."""
    if isinstance(v, str) and v in _KINDS:
        return _KINDS[v]
    raise ParseError(f"{where}: expected one of {', '.join(map(repr, _KINDS))}, "
                     f"got {v!r}")


def _key(rec, key: str, where: str):
    """rec[key]; ParseError at where when a record lacks the key."""
    try:
        return rec[key]
    except KeyError:
        raise ParseError(f"{where}: missing key {key!r}") from None


def parse_native(text: str) -> Network:
    """Parse the native JSON case format (see serialize_native)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "buses" not in doc or "lines" not in doc:
        raise ParseError("document must contain 'buses' and 'lines'")
    for key in ("buses", "lines"):
        if not isinstance(doc[key], list):
            raise ParseError(f"'{key}' must be a list")
    buses = []
    for k, rec in enumerate(doc["buses"]):
        at = f"buses[{k}]"
        try:
            kind = _kind(_key(rec, "kind", at), f"{at}.kind")
            buses.append(Bus(id=_whole(_key(rec, "id", at), f"{at}.id"), kind=kind,
                             p_inj=_real(rec.get("p", 0.0), f"{at}.p"),
                             q_inj=_real(rec.get("q", 0.0), f"{at}.q"),
                             v_set=_real(rec.get("v", 1.0), f"{at}.v")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{at}: {exc}") from exc
    lines = []
    for k, rec in enumerate(doc["lines"]):
        at = f"lines[{k}]"
        try:
            lines.append(Line(i=_whole(_key(rec, "from", at), f"{at}.from"),
                              j=_whole(_key(rec, "to", at), f"{at}.to"),
                              b=_real(_key(rec, "b", at), f"{at}.b"),
                              g=_real(rec.get("g", 0.0), f"{at}.g")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{at}: {exc}") from exc
    return Network(buses, _merge_parallel(lines))


def serialize_native(n: Network) -> str:
    doc = {"buses": [{"id": b.id, "kind": b.kind.value, "p": b.p_inj, "q": b.q_inj,
                      "v": b.v_set} for b in n.buses],
           "lines": [{"from": ln.i, "to": ln.j, "b": ln.b, "g": ln.g} for ln in n.lines]}
    return json.dumps(doc, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# MATPOWER subset

_MATRIX_RE = r"mpc\.%s\s*=\s*\[(.*?)\];"

# Standard column positions.
_BUS_I, _BUS_TYPE, _PD, _QD = 0, 1, 2, 3
_GS, _BS = 4, 5
_GEN_BUS, _PG, _QG, _VG, _GEN_STATUS = 0, 1, 2, 5, 7
_F_BUS, _T_BUS, _BR_R, _BR_X, _BR_B, _TAP, _SHIFT, _BR_STATUS = 0, 1, 2, 3, 4, 8, 9, 10


def _read_matrix(text: str, name: str) -> list[list[float]]:
    m = re.search(_MATRIX_RE % name, text, re.DOTALL)
    if m is None:
        raise ParseError(f"mpc.{name} matrix not found")
    rows = []
    for rn, raw in enumerate(m.group(1).split(";")):
        raw = raw.strip()
        if not raw:
            continue
        try:
            rows.append([float(v) for v in raw.replace(",", " ").split()])
        except ValueError as exc:
            raise ParseError(f"mpc.{name} row {rn + 1}: {exc}") from exc
    return rows


def parse_matpower(text: str) -> Network:
    """Parse the MATPOWER m-file subset: baseMVA plus bus/gen/branch matrices.

    Shunts, taps, phase shifts and line charging are outside the line model
    and are dropped with a warning. Branch parameters become b = X/(R^2+X^2)
    and g = R/(R^2+X^2); loads are negated into injections.
    """
    text = "\n".join(ln.split("%")[0] for ln in text.splitlines())
    m = re.search(r"mpc\.baseMVA\s*=\s*([0-9eE().+-]+)\s*;", text)
    if m is None:
        raise ParseError("mpc.baseMVA not found")
    try:
        base = float(m.group(1))
    except ValueError:
        base = math.nan
    if not 0 < base < math.inf:  # an inf base would turn every injection into 0
        raise ParseError(f"mpc.baseMVA must be positive and finite, got {m.group(1)!r}")

    bus_rows = _read_matrix(text, "bus")
    gen_rows = _read_matrix(text, "gen")
    branch_rows = _read_matrix(text, "branch")

    gens: dict[int, list[list[float]]] = {}
    for rn, row in enumerate(gen_rows):
        if len(row) <= _GEN_STATUS:
            raise ParseError(f"gen row {rn + 1}: too few columns")
        if row[_GEN_STATUS] <= 0:
            continue
        gens.setdefault(_whole(row[_GEN_BUS], f"gen row {rn + 1}"), []).append(row)

    buses = []
    kinds_seen = {1: BusKind.PQ, 2: BusKind.PV, 3: BusKind.SLACK}
    for rn, row in enumerate(bus_rows):
        if len(row) <= _QD:
            raise ParseError(f"bus row {rn + 1}: too few columns")
        bid = _whole(row[_BUS_I], f"bus row {rn + 1}")
        btype = _whole(row[_BUS_TYPE], f"bus row {rn + 1}")
        if btype not in kinds_seen:
            raise ParseError(f"bus {bid}: unsupported type {btype}")
        kind = kinds_seen[btype]
        if len(row) > _BS and (row[_GS] != 0 or row[_BS] != 0):
            warnings.warn(f"bus {bid}: shunt element ignored", stacklevel=2)
        pg = sum(g[_PG] for g in gens.get(bid, []))
        qg = sum(g[_QG] for g in gens.get(bid, []))
        v_set = 1.0
        if kind is not BusKind.PQ:
            vgs = [g[_VG] for g in gens.get(bid, [])]
            if vgs:
                if max(vgs) - min(vgs) > 1e-9:
                    raise ParseError(f"bus {bid}: generators disagree on VG")
                v_set = vgs[0]
        buses.append(Bus(id=bid, kind=kind,
                         p_inj=(pg - row[_PD]) / base,
                         q_inj=(qg - row[_QD]) / base,
                         v_set=v_set))

    lines = []
    tap_warned = charge_warned = False
    for rn, row in enumerate(branch_rows):
        if len(row) <= _BR_X:
            raise ParseError(f"branch row {rn + 1}: too few columns")
        if len(row) > _BR_STATUS and row[_BR_STATUS] == 0:
            continue
        r, x = row[_BR_R], row[_BR_X]
        if x == 0:
            raise ParseError(f"branch row {rn + 1}: zero reactance")
        if not tap_warned and len(row) > _SHIFT and (
                (row[_TAP] not in (0.0, 1.0)) or row[_SHIFT] != 0.0):
            warnings.warn("transformer tap/shift columns ignored", stacklevel=2)
            tap_warned = True
        if not charge_warned and len(row) > _BR_B and row[_BR_B] != 0.0:
            warnings.warn("line-charging susceptance ignored", stacklevel=2)
            charge_warned = True
        den = r * r + x * x
        if den == 0.0:  # both squares underflow: an admittance beyond any limit
            raise ParseError(f"branch row {rn + 1}: impedance too small")
        i, j = (_whole(row[c], f"branch row {rn + 1}") for c in (_F_BUS, _T_BUS))
        lines.append(Line(i=i, j=j, b=x / den, g=r / den))
    return Network(buses, _merge_parallel(lines))


# ---------------------------------------------------------------------------
# transformations

def losslessify(n: Network) -> Network:
    """Zero out all conductances; susceptances are kept as they are. A
    network whose conductances are all +0.0 already is returned as it is."""
    if not (n.g.any() or np.signbit(n.g).any()):
        return n
    return impose_ratio(n, 0.0)


def impose_ratio(n: Network, kappa: float) -> Network:
    """n with every conductance set to kappa * b, checked as the
    constructor checks lines, with a fresh derived memo."""
    out = copy.copy(n)
    with np.errstate(over="ignore"):  # an inf g is refused below
        out._set_lines(n.b, kappa * n.b)
    return out


def absorb_setpoints(n: Network) -> Network:
    """Rescale line admittances by the fixed-voltage set-points they touch.

    Every PV/slack set-point becomes 1 and each line's y = g - jb is
    replaced by y * v_i * v_j, with v = 1 at PQ ends, so a uniform g/b ratio
    stays uniform. The cross terms of every balance match the original
    exactly; the self terms of a line whose ends' set-points differ (only
    the reactive ones, on a lossless network) are rescaled along with it,
    which is the standard flat-set-point normalization of this model. A
    network whose set-points are all 1 already is returned as it is.
    """
    if n.unit_setpoints:
        return n
    out = copy.copy(n)
    pq = n.kinds == 2
    v_eff = np.where(pq, 1.0, n.v_set)
    out._set_injections(n.p_inj, n.q_inj, np.where(pq, n.v_set, 1.0))
    ends = v_eff[n.edges]
    with np.errstate(over="ignore", under="ignore"):
        b, g = (x * ends[:, 0] * ends[:, 1] for x in (n.b, n.g))
    # A scaled b or g out of range is the set-point's fault: name the line's
    # end whose set-point lies farther from 1.
    bad = ~((b > 0) & (np.maximum(b, g) <= MAX_MAGNITUDE))
    if bad.any():
        k = int(np.argmax(bad))
        end = n.edges[k, int(np.argmax(abs(np.log(ends[k]))))]
        raise ParseError(f"bus {n.ids[end]}: voltage set-point {n.v_set[end]:g} scales "
                         f"line {n.ids[n.edges[k, 0]]}-{n.ids[n.edges[k, 1]]} "
                         + ("to zero" if b[k] == 0 else f"beyond {MAX_MAGNITUDE:g} per unit"))
    out._set_lines(b, g)
    return out


def incidence(n: Network) -> np.ndarray:
    """Bus-by-oriented-edge incidence: +1 at the from end, -1 at the to end."""
    a = np.zeros((n.n_bus, len(n.b)))
    a[n.edges, np.arange(len(n.b))[:, None]] = (1.0, -1.0)
    return a


def is_tree(n: Network) -> bool:
    return len(n.b) == n.n_bus - 1


def scale_injections(n: Network, kappa: float, delta: float = 1.0) -> Network:
    """Scale active injections by kappa at every non-slack bus and reactive
    injections by delta*kappa at PQ buses. The new injections are checked
    as the constructor checks them; the lines, the index arrays and the
    derived memo are n's own."""
    p, q = n.p_inj.copy(), n.q_inj.copy()
    # An overflow to inf, or a NaN from inf * 0, is for the check to refuse,
    # not for numpy to warn about.
    with np.errstate(over="ignore", invalid="ignore"):
        p[n.ns] *= kappa
        q[n.pq] *= delta * kappa
    scaled = copy.copy(n)
    scaled._set_injections(p, q, n.v_set)
    return scaled


# ---------------------------------------------------------------------------
# bundled cases

# Bundled case name -> file in the gridenergy.cases package.
BUNDLED_CASES = {"twobus": "twobus.json",
                 "threebus": "threebus.json",
                 "threebus-tree": "threebus_tree.json",
                 "ieee14": "case14.m",
                 "ieee118": "case118.m"}


@functools.cache
def _cases_dir():
    """The gridenergy.cases package directory, resolved at the first call."""
    return resources.files("gridenergy.cases")


def case_text(name_or_path: str) -> str:
    """Text of a bundled case by name, or of any case file by path."""
    if name_or_path in BUNDLED_CASES:
        return _cases_dir().joinpath(BUNDLED_CASES[name_or_path]).read_text()
    try:
        with open(name_or_path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read case file: {exc}") from exc


def load_case(name_or_path: str, text: str | None = None) -> Network:
    """Load a bundled case by name or any case file by path.

    Files ending in .m are read as MATPOWER text, everything else as the
    native JSON format. Given text, the case_text of name_or_path, it is
    parsed without reading the file again.
    """
    if text is None:
        text = case_text(name_or_path)
    if BUNDLED_CASES.get(name_or_path, name_or_path).endswith(".m"):
        return parse_matpower(text)
    return parse_native(text)
