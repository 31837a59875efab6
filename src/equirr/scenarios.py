"""Scenario files: parsing, validation and realization into CoverData.

A scenario is a JSON document; the schema is documented in
docs/scenario-format.md.  Parsing is strict: unknown modes, malformed
matrices, reducible place polynomials and non-equivariant divisors are
rejected with diagnostics naming the offending field or orbit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .engine import CoverData
from .errors import InputError
from .fields import Field, Poly, field_make, poly_roots
from .geometry import Divisor, P1Geometry, Place, abstract_datum
from .groups import (DEFAULT_ORDER_CAP, FiniteGroup, pgl2_inv, pgl2_mul,
                     pgl2_normalize)


@dataclass
class ScenarioConfig:
    p: int
    n: int
    mode: str  # "oracle" | "abstract"
    group_spec: dict
    divisors: list  # raw JSON divisors (oracle mode)
    orbits: list  # raw JSON orbit payloads (abstract mode)
    genus_quotient: int
    options: dict = dc_field(default_factory=dict)
    raw: dict = dc_field(default_factory=dict)


# The keys each object of a scenario may carry; any other is an input
# error naming its path, so a misspelled key is never silently ignored.
KNOWN_KEYS = {
    "": {"field", "group", "mode", "seed", "options", "divisors", "orbits",
         "genus_quotient"},
    "field": {"p", "n"},
    "group": {"kind", "p", "n", "generators", "table", "size"},
    "options": {"group_order_cap"},
    "orbit": {"label", "decomposition", "inertia", "wild", "residue_degree",
              "cotangent", "coefficient"},
    "cotangent": {"generator", "value"},
}


# The keys that only one mode or group kind reads.  A scenario that
# carries one its own mode or kind does not read is an input error naming
# the key's path, so a key is never silently ignored there either.
MODE_KEYS = {"oracle": {"divisors"}, "abstract": {"genus_quotient", "orbits"}}
KIND_KEYS = {"pgl2": {"generators"}, "table": {"table"},
             "pgl2_s3_search": set()}


def _check_read(obj: dict, owned: dict, own: str, key: str, what: str):
    """InputError naming the path of the first key of obj, in sorted
    order, that some entry of `owned` lists but owned[own] does not; key
    is obj's own path and `what` names the mode or kind."""
    unread = sorted(set(obj) & set().union(*owned.values()) - owned[own])
    if unread:
        path = f"{key}.{unread[0]}" if key else unread[0]
        raise InputError(f"{path}: {what} does not read this key")


def _check_keys(obj: dict, level: str, key: str):
    """InputError naming the path of the first key of obj, in sorted
    order, that KNOWN_KEYS[level] does not list; key is obj's own path."""
    unknown = sorted(set(obj) - KNOWN_KEYS[level])
    if unknown:
        path = f"{key}.{unknown[0]}" if key else unknown[0]
        raise InputError(f"{path}: unknown key; expected one of "
                         f"{', '.join(sorted(KNOWN_KEYS[level]))}")


def _json_int(value, key: str) -> int:
    """value as an int when it is a JSON integer (an int, not a bool);
    InputError naming the key path otherwise, so 1.5 is never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{key}: expected an integer, got {value!r}")
    return value


def _json_indices(value, key: str, order: int) -> list[int]:
    """value as a list of group element indices, each a JSON integer in
    range(order); InputError naming the key path otherwise."""
    if not isinstance(value, list):
        raise InputError(f"{key}: expected a list of element indices, got "
                         f"{value!r}")
    out = []
    for j, x in enumerate(value):
        x = _json_int(x, f"{key}[{j}]")
        if not 0 <= x < order:
            raise InputError(f"{key}[{j}]: element index {x} is out of "
                             f"range for a group of order {order}")
        out.append(x)
    return out


def _json_below(value, key: str, bound: int, noun: str) -> int:
    """value as a JSON integer in range(bound); InputError naming the key
    path otherwise, so an entry is never reduced mod bound."""
    x = _json_int(value, key)
    if not 0 <= x < bound:
        raise InputError(f"{key}: {noun} {x} is outside range({bound})")
    return x


def _residue_digits(value: list, key: str, p: int, degree: int) -> list[int]:
    """value as the GF(p) coefficients of an element of a degree-`degree`
    field: at most `degree` JSON integers, each in range(p); InputError
    naming the key path otherwise, so no digit is reduced or dropped."""
    if len(value) > degree:
        raise InputError(f"{key}: {len(value)} digits for a residue field "
                         f"of degree {degree} over GF({p})")
    return [_json_below(c, f"{key}[{j}]", p, "digit")
            for j, c in enumerate(value)]


def parse_scenario(source) -> ScenarioConfig:
    """Parse and validate a scenario from JSON text, a path-like read
    string, or an already-decoded dict."""
    if isinstance(source, dict):
        doc = source
    else:
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as e:
            raise InputError(f"scenario is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise InputError("scenario document must be a JSON object")

    field_spec = doc.get("field")
    if not isinstance(field_spec, dict) or "p" not in field_spec:
        raise InputError("field: expected an object with 'p' and 'n'")
    _check_keys(field_spec, "field", "field")
    p = _json_int(field_spec["p"], "field.p")
    n = _json_int(field_spec.get("n", 1), "field.n")

    mode = doc.get("mode", "oracle")
    if mode not in MODE_KEYS:
        raise InputError(f"mode: unknown mode {mode!r}")
    _check_read(doc, MODE_KEYS, mode, "", f"{mode} mode")

    group_spec = doc.get("group")
    if not isinstance(group_spec, dict) or "kind" not in group_spec:
        raise InputError("group: expected an object with a 'kind'")
    _check_keys(group_spec, "group", "group")
    kind = group_spec["kind"]
    if kind not in KIND_KEYS:
        raise InputError(f"group.kind: unknown kind {kind!r}")
    _check_read(group_spec, KIND_KEYS, kind, "group", f"a {kind} group")
    if kind == "pgl2" and not isinstance(group_spec.get("generators"), list):
        raise InputError("group.generators: pgl2 groups need a list of "
                         "2x2 matrices")
    if kind == "table" and "table" not in group_spec:
        raise InputError("group: table groups need a 'table'")
    for key in ("p", "n"):
        if (key in group_spec and _json_int(group_spec[key], f"group.{key}")
                != {"p": p, "n": n}[key]):
            raise InputError(f"group.{key} disagrees with the field spec")

    divisors = doc.get("divisors", [])
    orbits = doc.get("orbits", [])
    if mode == "oracle":
        if kind == "table":
            raise InputError("oracle mode needs a pgl2 group")
        if not isinstance(divisors, list):
            raise InputError("divisors: expected a list of divisors")
    elif not isinstance(orbits, list) or not orbits:
        raise InputError("abstract mode needs a nonempty 'orbits' list")

    # the seed reaches no draw: it is checked, then dropped from the echo
    _json_int(doc.get("seed", 0), "seed")
    genus = _json_int(doc.get("genus_quotient", 0), "genus_quotient")
    if genus < 0:
        raise InputError("genus_quotient must be nonnegative")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise InputError("options must be an object")
    _check_keys(options, "options", "options")
    _check_keys(doc, "", "")
    return ScenarioConfig(p=p, n=n, mode=mode, group_spec=group_spec,
                          divisors=divisors, orbits=orbits,
                          genus_quotient=genus, options=options,
                          raw={k: v for k, v in doc.items() if k != "seed"})


# -- group construction ------------------------------------------------------------


def _pgl2_order(k: Field, m) -> int:
    ident = pgl2_normalize(k, (1, 0, 0, 1))
    cur = m
    o = 1
    while cur != ident:
        cur = pgl2_mul(k, cur, m)
        o += 1
        if o > k.q**3:
            raise InputError("element order runaway")
    return o


def _pgl2_elements(k: Field, order: int):
    """The normalized PGL2(k) matrices of the given order, by encoding
    a + b q + c q^2 + d q^3 (once per scalar multiple)."""
    for enc in range(k.q**4):
        raw = tuple(enc // k.q**i % k.q for i in range(4))
        try:
            m = pgl2_normalize(k, raw)
        except InputError:
            continue
        if _pgl2_order(k, m) == order:
            yield m


def find_s3_pgl2(k: Field):
    """Deterministic search for an order-3 element with irreducible
    characteristic polynomial plus a normalizing involution."""
    for m in _pgl2_elements(k, 3):
        trace = k.add(m[0], m[3])
        det = k.sub(k.mul(m[0], m[3]), k.mul(m[1], m[2]))
        charpoly = Poly(k, [det, k.neg(trace), 1])
        if poly_roots(charpoly):
            continue  # split characteristic polynomial: keep searching
        for t in _pgl2_elements(k, 2):
            conj = pgl2_mul(k, pgl2_mul(k, t, m), pgl2_inv(k, t))
            if conj == pgl2_inv(k, m):
                return [m, t]
    raise InputError("no S3 with the requested shape exists in PGL2 here")


def build_group(cfg: ScenarioConfig, k: Field) -> FiniteGroup:
    spec = cfg.group_spec
    cap = _json_int(cfg.options.get("group_order_cap", DEFAULT_ORDER_CAP),
                   "options.group_order_cap")
    if cap < 1:
        raise InputError(f"options.group_order_cap: {cap} is not positive")
    if spec["kind"] == "table":
        table = spec["table"]
        if not isinstance(table, list):
            raise InputError(f"group.table: expected a list of rows, got "
                             f"{table!r}")
        return FiniteGroup.from_table(
            [_json_indices(row, f"group.table[{i}]", len(table))
             for i, row in enumerate(table)])
    if spec["kind"] == "pgl2_s3_search":
        gens = find_s3_pgl2(k)
    else:
        gens = []
        for g, mat in enumerate(spec["generators"]):
            if (not isinstance(mat, list) or len(mat) != 2
                    or any(not isinstance(row, list) or len(row) != 2
                           for row in mat)):
                raise InputError(f"group.generators: bad matrix {mat!r}")
            gens.append(tuple(
                _json_below(x, f"group.generators[{g}][{r}][{c}]", k.q,
                            "entry")
                for r, row in enumerate(mat) for c, x in enumerate(row)))
    return FiniteGroup.close_generators(k, gens, cap=cap)


# -- divisor construction ------------------------------------------------------------


def parse_place(k: Field, raw, key: str) -> Place:
    if raw == "inf":
        return Place.infinity()
    if not isinstance(raw, list) or not raw:
        raise InputError(f"place: expected 'inf' or a coefficient list, "
                         f"got {raw!r}")
    coeffs = [_json_below(c, f"{key}[{i}]", k.q, "coefficient")
              for i, c in enumerate(raw)]
    poly = Poly(k, coeffs)
    if poly.degree < 1:
        raise InputError(f"place polynomial must be nonconstant: {raw!r}")
    return Place(poly)  # irreducibility checked by the constructor


def parse_divisor(k: Field, raw, key: str) -> Divisor:
    if not isinstance(raw, list):
        raise InputError(f"divisor: expected a list of [place, coeff] "
                         f"pairs, got {raw!r}")
    data: dict[Place, int] = {}
    for j, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != 2:
            raise InputError(f"divisor entry: expected [place, coeff], "
                             f"got {entry!r}")
        place = parse_place(k, entry[0], f"{key}[{j}][0]")
        if place in data:
            raise InputError(f"divisor repeats the place {place!r}")
        data[place] = _json_int(entry[1], f"{key}[{j}][1]")
    return Divisor(data)


# -- realization -----------------------------------------------------------------------


@dataclass
class Scenario:
    """A realized scenario: its cover (group, field, registry and the
    per-scenario caches) and, in oracle mode, its divisors.  Every command
    of one scenario can run on it, and a report reads nothing else."""
    config: ScenarioConfig
    cover: CoverData
    divisors: list[Divisor]


def realize(cfg: ScenarioConfig) -> Scenario:
    k = field_make(cfg.p, cfg.n)
    G = build_group(cfg, k)
    size = cfg.group_spec.get("size", G.order)
    if _json_int(size, "group.size") != G.order:
        raise InputError(f"group.size: {size} is not the group order "
                         f"{G.order}")
    if cfg.mode == "oracle":
        divisors = [parse_divisor(k, raw, f"divisors[{i}]")
                    for i, raw in enumerate(cfg.divisors)]
        geometry = P1Geometry(k, G)
        cover = CoverData.from_geometry(geometry)
        for D in divisors:
            geometry.check_equivariant(D)
        return Scenario(cfg, cover, divisors)
    data = []
    coefficients = []
    for i, raw in enumerate(cfg.orbits):
        key = f"orbits[{i}]"
        if not isinstance(raw, dict):
            raise InputError(f"{key}: expected an object")
        _check_keys(raw, "orbit", key)
        try:
            decomposition, inertia = (
                _json_indices(raw[name], f"{key}.{name}", G.order)
                for name in ("decomposition", "inertia"))
        except KeyError as e:
            raise InputError(f"{key}: missing key {e}") from None
        cot = raw.get("cotangent", {})
        if not isinstance(cot, dict):
            raise InputError(f"{key}.cotangent: expected an object, got "
                             f"{cot!r}")
        _check_keys(cot, "cotangent", f"{key}.cotangent")
        generator = cot.get("generator")
        if generator is not None:
            generator = _json_int(generator, f"{key}.cotangent.generator")
        residue_degree = _json_int(raw.get("residue_degree", 1),
                                   f"{key}.residue_degree")
        if residue_degree < 1:
            raise InputError(f"{key}.residue_degree: {residue_degree} is "
                             "not positive")
        value = cot.get("value")
        if isinstance(value, list):
            value = _residue_digits(value, f"{key}.cotangent.value", k.p,
                                    k.n * residue_degree)
        elif value is not None:
            value = _json_int(value, f"{key}.cotangent.value")
        wild = _json_indices(raw.get("wild", [G.identity]), f"{key}.wild",
                             G.order)
        subgroups = {}
        for name, indices in (("decomposition", decomposition),
                              ("inertia", inertia), ("wild", wild)):
            try:
                subgroups[name] = G.subgroup(indices)
            except InputError as e:
                raise InputError(f"{key}.{name}: {e}") from None
        try:
            datum = abstract_datum(
                G, k,
                label=str(raw.get("label", f"orbit{i}")),
                **subgroups,
                residue_degree=residue_degree,
                cot_generator=generator,
                cot_value=value,
            )
        except InputError as e:
            raise InputError(f"{key}: {e}") from None
        data.append(datum)
        coefficients.append(_json_int(raw.get("coefficient", 0),
                                      f"{key}.coefficient"))
    cover = CoverData.from_abstract(G, k, cfg.genus_quotient, data,
                                    coefficients)
    return Scenario(cfg, cover, [])
