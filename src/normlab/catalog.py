"""Deterministic constructors for named group families and generator files.

Spec strings: ``S:n``, ``A:n``, ``C:n``, ``D:n``, ``PSL2:q``, ``AGL1:p``,
``PROD(spec,spec,..)``, ``FILE:path``. Subgroup selectors: ``syl:p``,
``stab:k``, ``gens:(cycles)|(cycles)|..``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_prime, smallest_primitive_root
from .errors import (
    InvalidParameter,
    NotASubgroup,
    NotPrime,
    ParseError,
    SubgroupNotContained,
)
from .group import Group
from .perm import Perm, parse_cycles, perm_from_cycles
from .structure import sylow_subgroup
from .subgroups import Subgroup, subgroup

__all__ = ["GroupSpec", "parse_spec", "build", "select_subgroup", "parse_group_file",
           "default_sweep"]

@dataclass(frozen=True)
class GroupSpec:
    """Parsed description of a catalog construction or generator file."""

    kind: str
    param: int = 0
    path: str = ""
    factors: tuple["GroupSpec", ...] = ()

    def __str__(self) -> str:
        if self.kind == "PROD":
            body = "PROD(" + ",".join(str(f) for f in self.factors) + ")"
        elif self.kind == "FILE":
            body = f"FILE:{self.path}"
        else:
            body = f"{self.kind}:{self.param}"
        return body


def parse_spec(text: str) -> GroupSpec:
    text = text.strip()
    if text.startswith("PROD(") and text.endswith(")"):
        inner = text[5:-1]
        parts: list[str] = []
        depth = 0
        current = ""
        for ch in inner:
            if ch == "(" :
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                parts.append(current)
                current = ""
            else:
                current += ch
        if current:
            parts.append(current)
        if len(parts) < 2:
            raise InvalidParameter(f"PROD needs at least two factors: {text!r}")
        return GroupSpec("PROD", factors=tuple(parse_spec(p) for p in parts))
    if text.startswith("FILE:"):
        return GroupSpec("FILE", path=text[5:])
    kind, _, raw = text.partition(":")
    kind = kind.strip()
    if kind not in _FAMILIES:
        raise InvalidParameter(
            f"cannot parse group spec {text!r}: expected one of"
            f" {', '.join(_FAMILIES)} with ':n', PROD(spec,spec,..) or FILE:path"
        )
    try:
        param = int(raw)
    except ValueError:
        raise InvalidParameter(f"non-integer parameter in {text!r}") from None
    return GroupSpec(kind, param=param)


# -- family builders -------------------------------------------------------------


def _symmetric(n: int) -> Group:
    if n < 1:
        raise InvalidParameter("S:n needs n >= 1")
    if n == 1:
        return Group(1, ())
    if n == 2:
        return Group(2, (perm_from_cycles(2, [[1, 2]]),))
    return Group(n, (perm_from_cycles(n, [[1, 2]]), perm_from_cycles(n, [list(range(1, n + 1))])))


def _alternating(n: int) -> Group:
    if n < 1:
        raise InvalidParameter("A:n needs n >= 1")
    if n <= 2:
        return Group(max(n, 1), ())
    gens = tuple(perm_from_cycles(n, [[i, i + 1, i + 2]]) for i in range(1, n - 1))
    return Group(n, gens)


def _cyclic(n: int) -> Group:
    if n < 1:
        raise InvalidParameter("C:n needs n >= 1")
    if n == 1:
        return Group(1, ())
    return Group(n, (perm_from_cycles(n, [list(range(1, n + 1))]),))


def _dihedral(n: int) -> Group:
    if n < 2:
        raise InvalidParameter("D:n needs n >= 2")
    if n == 2:
        # order 4; the 2-point action is not faithful, so act on 4 points
        return Group(4, (perm_from_cycles(4, [[1, 2]]), perm_from_cycles(4, [[3, 4]])))
    rotation = perm_from_cycles(n, [list(range(1, n + 1))])
    reflection = perm_from_cycles(n, [[i, n + 2 - i] for i in range(2, n // 2 + 2) if i < n + 2 - i])
    return Group(n, (rotation, reflection))


def _agl1(p: int) -> Group:
    if not is_prime(p):
        raise NotPrime(f"AGL1 needs a prime parameter, got {p}")
    if p == 2:
        return Group(2, (perm_from_cycles(2, [[1, 2]]),))
    g = smallest_primitive_root(p)
    shift = perm_from_cycles(p, [list(range(1, p + 1))])
    mult = Perm(tuple((g * (i - 1)) % p + 1 for i in range(1, p + 1)))
    return Group(p, (shift, mult))


def _psl2(q: int) -> Group:
    if not is_prime(q) or q == 2:
        raise NotPrime(f"PSL2 needs an odd prime parameter, got {q}")
    n = q + 1  # points: residues 0..q-1 -> 1..q, infinity -> q+1
    shift = [0] * n
    inv = [0] * n
    for r in range(q):
        shift[r] = ((r + 1) % q) + 1
        inv[r] = ((-pow(r, q - 2, q)) % q) + 1 if r != 0 else q + 1
    shift[q] = q + 1
    inv[q] = 1
    return Group(n, (Perm(tuple(shift)), Perm(tuple(inv))))


def _product(factors: tuple[GroupSpec, ...]) -> Group:
    built = [build(f)[0] for f in factors]
    degree = sum(g.degree for g in built)
    gens: list[Perm] = []
    offset = 0
    for g in built:
        for gen in g.generators:
            images = list(range(1, degree + 1))
            for i, img in enumerate(gen.images):
                images[offset + i] = offset + img
            gens.append(Perm(tuple(images), _checked=True))
        offset += g.degree
    return Group(degree, tuple(gens))


def select_subgroup(G: Group, selector: str) -> Subgroup:
    """The subgroup of G named by a selector (``syl:p``, ``stab:k``, ``gens:..``)."""
    kind, _, raw = selector.partition(":")
    if kind == "syl":
        try:
            p = int(raw)
        except ValueError:
            raise InvalidParameter(f"bad Sylow selector {selector!r}") from None
        return sylow_subgroup(G, p)
    if kind == "stab":
        try:
            k = int(raw)
        except ValueError:
            raise InvalidParameter(f"bad stabilizer selector {selector!r}") from None
        return Subgroup(G, G.point_stabilizer(k))
    if kind == "gens":
        gens = []
        for chunk in raw.split("|"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                cycles = parse_cycles(chunk)
            except ValueError as exc:
                raise InvalidParameter(str(exc)) from None
            gens.append(perm_from_cycles(G.degree, cycles))
        try:
            return subgroup(G, gens)
        except NotASubgroup:
            raise SubgroupNotContained(
                f"selector generators do not lie in the group: {selector!r}"
            ) from None
    raise InvalidParameter(f"unknown subgroup selector {selector!r}")


# the families with an integer parameter, by name
_FAMILIES = {"S": _symmetric, "A": _alternating, "C": _cyclic, "D": _dihedral,
             "PSL2": _psl2, "AGL1": _agl1}


def build(spec: GroupSpec) -> tuple[Group, Subgroup | None]:
    """Construct the group for a spec, with the subgroup named by a FILE
    spec's ``sgen`` lines (None for every other spec)."""
    if spec.kind == "PROD":
        return _product(spec.factors), None
    if spec.kind == "FILE":
        try:
            with open(spec.path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidParameter(f"cannot read group file {spec.path!r}: {type(exc).__name__}") from None
        return parse_group_file(text)
    if spec.kind not in _FAMILIES:
        raise InvalidParameter(f"unknown group kind {spec.kind!r}")
    return _FAMILIES[spec.kind](spec.param), None


# -- generator files --------------------------------------------------------------


def parse_group_file(text: str) -> tuple[Group, Subgroup | None]:
    """Parse the group file grammar.

    First significant line: ``degree <n>``; then ``gen <cycles>`` or
    ``sgen <cycles>`` lines; blank lines and ``#`` comments are ignored.
    """
    degree: int | None = None
    gens: list[Perm] = []
    sgens: list[Perm] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if degree is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "degree":
                raise ParseError("expected 'degree <n>'", lineno)
            try:
                degree = int(parts[1])
            except ValueError:
                raise ParseError(f"bad degree {parts[1]!r}", lineno) from None
            if degree < 1:
                raise ParseError("degree must be >= 1", lineno)
            continue
        keyword, _, rest = line.partition(" ")
        if keyword not in ("gen", "sgen"):
            raise ParseError(f"unknown directive {keyword!r}", lineno)
        try:
            cycles = parse_cycles(rest)
            p = perm_from_cycles(degree, cycles)
        except Exception as exc:
            raise ParseError(str(exc), lineno) from None
        (gens if keyword == "gen" else sgens).append(p)
    if degree is None:
        raise ParseError("missing 'degree <n>' line", len(text.splitlines()) or 1)
    G = Group(degree, tuple(gens))
    if not sgens:
        return G, None
    try:
        return G, subgroup(G, sgens)
    except NotASubgroup as exc:
        raise SubgroupNotContained(f"sgen {exc}") from None


# -- the default sweep -------------------------------------------------------------


def default_sweep(max_order: int = 2500) -> list[GroupSpec]:
    """The built-in catalog sweep: every family with small parameters, capped
    by the given order."""
    specs: list[str] = []
    specs += [f"S:{n}" for n in range(3, 6)]
    specs += [f"A:{n}" for n in range(4, 6)]
    specs += [f"C:{n}" for n in range(2, 13)]
    specs += [f"D:{n}" for n in range(3, 13)]
    specs += [f"AGL1:{p}" for p in (5, 7, 11, 13)]
    specs += [f"PSL2:{q}" for q in (5, 7, 13, 17)]
    specs += [
        "PROD(C:2,C:2)",
        "PROD(C:3,C:3)",
        "PROD(S:3,C:2)",
        "PROD(D:4,C:2)",
        "PROD(A:4,C:2)",
        "PROD(S:3,S:3)",
        "PROD(S:4,C:2)",
    ]
    out = []
    for s in specs:
        spec = parse_spec(s)
        G, _ = build(spec)
        if G.order() <= max_order:
            out.append(spec)
    return out
