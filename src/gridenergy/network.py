"""Network data model and case-file ingestion.

A Network is an immutable graph of buses and lines in per unit. Lines in
the lossless model carry a single positive parameter b (the negated series
susceptance); lossy lines additionally carry a conductance g. Injections
follow the generation-positive sign convention, so loads are negative.
"""
from __future__ import annotations

import enum
import json
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


class Network:
    """Immutable bus/line model with derived index arrays.

    Every line parameter and injection must be finite and at most
    MAX_MAGNITUDE in absolute value; anything else raises ParseError.

    Derived attributes (all positional, buses kept in input order):
      pq, pv, ns     index arrays of PQ, PV and non-slack buses
      slack_index    position of the slack bus
      edges          (m, 2) endpoint positions per line
      b, g           per-line parameters
      y              per-line series admittance g - jb
      b_total        per-bus sum of incident b (B_i)
      lossy_ratio    g/b when uniform across lines (0.0 when lossless),
                     None when the ratio varies
    """

    def __init__(self, buses, lines):
        buses = tuple(buses)
        lines = tuple(lines)
        if not buses:
            raise ParseError("network has no buses")
        ids = [b.id for b in buses]
        if len(set(ids)) != len(ids):
            raise ParseError("duplicate bus ids")
        kinds = [b.kind for b in buses]
        n_slack = kinds.count(BusKind.SLACK)
        if n_slack != 1:
            raise ParseError(f"expected exactly one slack bus, found {n_slack}")
        inj = np.array([[b.p_inj for b in buses], [b.q_inj for b in buses]])
        v = np.array([b.v_set for b in buses])
        pq = np.array([k is BusKind.PQ for k in kinds])
        # (x > 0) & (x < inf) is False for NaN: positive and finite.
        _raise_first(buses, lambda b: f"bus {b.id}", (
            (~np.isfinite(inj).all(axis=0), "non-finite injection"),
            (abs(inj).max(axis=0) > MAX_MAGNITUDE,
             f"injection beyond {MAX_MAGNITUDE:g} per unit"),
            (~(pq | (v > 0) & (v < np.inf)),
             "voltage set-point must be positive and finite")))

        index = {bid: k for k, bid in enumerate(ids)}
        n, m = len(buses), len(lines)
        ends = np.array([[index.get(ln.i, -1) for ln in lines],
                         [index.get(ln.j, -1) for ln in lines]], dtype=int)
        bg = np.array([[ln.b for ln in lines], [ln.g for ln in lines]])
        b, g = bg
        # Line k repeats a pair when the pair first appears before k: code
        # each sorted end pair as one integer (negative for an unknown end)
        # and compare neighbours in a stable sort, which keeps first
        # appearances first.
        lo, hi = np.sort(ends, axis=0)
        code = lo * n + hi
        order = np.argsort(code, kind="stable")
        repeat = np.zeros(m, dtype=bool)
        repeat[order[1:]] = code[order[1:]] == code[order[:-1]]
        _raise_first(lines, lambda ln: f"line {ln.i}-{ln.j}", (
            ((ends < 0).any(axis=0), "unknown bus id"),
            (ends[0] == ends[1], "self loop"),
            (~((b > 0) & (b < np.inf)), "b must be positive, got {item.b}"),
            (~((g >= 0) & (g < np.inf)), "g must be nonnegative"),
            (bg.max(axis=0) > MAX_MAGNITUDE,
             f"b and g must be at most {MAX_MAGNITUDE:g} per unit"),
            (repeat, "duplicate pair (merge parallel lines first)")))

        self.buses = buses
        self.lines = lines
        self.index = index
        self.n_bus = n
        self.slack_index = kinds.index(BusKind.SLACK)
        self.slack = ids[self.slack_index]
        self.pq = np.flatnonzero(pq)
        self.pv = np.flatnonzero([k is BusKind.PV for k in kinds])
        self.ns = np.flatnonzero([k is not BusKind.SLACK for k in kinds])
        self.p_inj, self.q_inj = inj
        self.v_set = v
        # Column-major, so each end column edges[:, 0], edges[:, 1] is
        # contiguous: the per-line gathers by it run at full speed.
        self.edges = ends.T
        self.b, self.g = b, g
        self.y = g - 1j * b
        # Every bus sums its from-ends, then its to-ends, in line order.
        self.b_total = np.bincount(ends.ravel(), np.concatenate((b, b)), n)

        self._check_connected()
        self.lossy_ratio = self._uniform_ratio()
        # Position of each pq bus within the pq ordering, -1 elsewhere.
        self.pq_index_of = np.full(n, -1, dtype=int)
        self.pq_index_of[self.pq] = np.arange(len(self.pq))

    def _check_connected(self):
        """Spread from the slack bus along every line at once, until no
        line leads anywhere new."""
        ends = self.edges.ravel(order="F")
        across = self.edges[:, ::-1].ravel(order="F")
        seen = np.zeros(self.n_bus, dtype=bool)
        seen[self.slack_index] = True
        while True:
            reached = across[seen[ends]]
            new = reached[~seen[reached]]
            if not len(new):
                break
            seen[new] = True
        if not seen.all():
            missing = [self.buses[k].id for k in np.flatnonzero(~seen)]
            raise ParseError(f"network is disconnected; unreachable buses {missing}")

    def _uniform_ratio(self):
        if len(self.lines) == 0 or np.all(self.g == 0.0):
            return 0.0
        ratios = self.g / self.b
        kappa = float(ratios[0])
        if np.max(np.abs(ratios - kappa)) <= 1e-9:
            return kappa
        return None

    @property
    def is_lossless(self) -> bool:
        return self.lossy_ratio == 0.0

    def __repr__(self):
        return (f"Network(n_bus={self.n_bus}, n_line={len(self.lines)}, "
                f"slack={self.slack})")


def _raise_first(items, name, checks) -> None:
    """Raise ParseError for the first item, in input order, that fails any
    check, naming its first failing check. checks holds (failing mask over
    the items, message) pairs in the order an item is tested; the message is
    prefixed by name(item) and may format the item as {item}."""
    bad = checks[0][0]
    for mask, _ in checks[1:]:
        bad = bad | mask
    if bad.any():
        k = int(np.argmax(bad))
        message = next(message for mask, message in checks if mask[k])
        raise ParseError(f"{name(items[k])}: {message.format(item=items[k])}")


def _merge_parallel(lines) -> list[Line]:
    merged: dict[frozenset, Line] = {}
    order: list[frozenset] = []
    for ln in lines:
        key = frozenset((ln.i, ln.j))
        if key in merged:
            old = merged[key]
            merged[key] = replace(old, b=old.b + ln.b, g=old.g + ln.g)
        else:
            merged[key] = ln
            order.append(key)
    return [merged[k] for k in order]


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
            kind = _KINDS[_key(rec, "kind", at)]
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
    doc = {
        "buses": [
            {"id": b.id, "kind": b.kind.value, "p": b.p_inj, "q": b.q_inj,
             "v": b.v_set}
            for b in n.buses
        ],
        "lines": [
            {"from": ln.i, "to": ln.j, "b": ln.b, "g": ln.g} for ln in n.lines
        ],
    }
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
        raw = raw.split("%")[0].strip()
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
    base = float(m.group(1))
    if base <= 0:
        raise ParseError(f"baseMVA must be positive, got {base}")

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
    n_slack = 0
    for rn, row in enumerate(bus_rows):
        if len(row) <= _QD:
            raise ParseError(f"bus row {rn + 1}: too few columns")
        bid = _whole(row[_BUS_I], f"bus row {rn + 1}")
        btype = _whole(row[_BUS_TYPE], f"bus row {rn + 1}")
        if btype not in kinds_seen:
            raise ParseError(f"bus {bid}: unsupported type {btype}")
        kind = kinds_seen[btype]
        if kind is BusKind.SLACK:
            n_slack += 1
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
    if n_slack != 1:
        raise ParseError(f"expected exactly one slack bus, found {n_slack}")

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
    return Network(n.buses, [Line(ln.i, ln.j, ln.b) for ln in n.lines])


def absorb_setpoints(n: Network) -> Network:
    """Rescale line susceptances by the fixed-voltage set-points they touch.

    Every PV/slack set-point becomes 1 and each line b is replaced by
    b * v_i * v_j, with v = 1 at PQ ends. The active power balances of the
    rescaled network match the original exactly; the reactive self terms at
    PQ buses next to non-unit set-points are rescaled along with the line,
    which is the standard flat-set-point normalization of this model. A
    network whose set-points are all 1 already is returned as it is.
    """
    if n.v_set[n.slack_index] == 1.0 and np.all(n.v_set[n.pv] == 1.0):
        return n
    v_eff = {b.id: (b.v_set if b.kind is not BusKind.PQ else 1.0) for b in n.buses}
    buses = [b if b.kind is BusKind.PQ else Bus(b.id, b.kind, b.p_inj, b.q_inj, 1.0)
             for b in n.buses]
    lines = [Line(ln.i, ln.j, ln.b * v_eff[ln.i] * v_eff[ln.j], ln.g)
             for ln in n.lines]
    return Network(buses, lines)


def incidence(n: Network) -> np.ndarray:
    """Bus-by-oriented-edge incidence: +1 at the from end, -1 at the to end."""
    a = np.zeros((n.n_bus, len(n.lines)))
    for k, (f, t) in enumerate(n.edges):
        a[f, k] = 1.0
        a[t, k] = -1.0
    return a


def is_tree(n: Network) -> bool:
    return len(n.lines) == n.n_bus - 1


def scale_injections(n: Network, kappa: float, delta: float = 1.0) -> Network:
    """Scale active injections by kappa at every non-slack bus and reactive
    injections by delta*kappa at PQ buses."""
    buses = []
    for b in n.buses:
        if b.kind is BusKind.SLACK:
            buses.append(b)
        elif b.kind is BusKind.PV:
            buses.append(Bus(b.id, b.kind, kappa * b.p_inj, b.q_inj, b.v_set))
        else:
            buses.append(Bus(b.id, b.kind, kappa * b.p_inj,
                             delta * kappa * b.q_inj, b.v_set))
    return Network(buses, n.lines)


# ---------------------------------------------------------------------------
# bundled cases

# Bundled case name -> file in the gridenergy.cases package.
BUNDLED_CASES = {"twobus": "twobus.json",
                 "threebus": "threebus.json",
                 "threebus-tree": "threebus_tree.json",
                 "ieee14": "case14.m",
                 "ieee118": "case118.m"}


def case_text(name_or_path: str) -> str:
    """Text of a bundled case by name, or of any case file by path."""
    if name_or_path in BUNDLED_CASES:
        return resources.files("gridenergy.cases").joinpath(
            BUNDLED_CASES[name_or_path]).read_text()
    try:
        with open(name_or_path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read case file: {exc}") from exc


def load_case(name_or_path: str) -> Network:
    """Load a bundled case by name or any case file by path.

    Files ending in .m are read as MATPOWER text, everything else as the
    native JSON format.
    """
    text = case_text(name_or_path)
    if BUNDLED_CASES.get(name_or_path, name_or_path).endswith(".m"):
        return parse_matpower(text)
    return parse_native(text)
