from __future__ import annotations

import pytest

from normlab import catalog
from normlab.arith import smallest_primitive_root
from normlab.catalog import (
    build,
    default_sweep,
    parse_group_file,
    parse_spec,
    select_subgroup,
)
from normlab.errors import (
    InvalidParameter,
    NotPrime,
    OrderTooLarge,
    ParseError,
    SubgroupNotContained,
)
from normlab.structure import is_abelian, p_core
from normlab.subgroups import is_simple
from normlab.theorems import is_frobenius_product

from oracles import brute_order


def test_symmetric_orders():
    for n, order in ((1, 1), (2, 2), (3, 6), (4, 24), (5, 120)):
        G, _ = build(parse_spec(f"S:{n}"))
        assert G.order() == order


def test_alternating_orders():
    for n, order in ((2, 1), (3, 3), (4, 12), (5, 60)):
        G, _ = build(parse_spec(f"A:{n}"))
        assert G.order() == order


def test_cyclic_and_dihedral():
    assert build(parse_spec("C:7"))[0].order() == 7
    assert build(parse_spec("D:4"))[0].order() == 8
    assert build(parse_spec("D:2"))[0].order() == 4
    with pytest.raises(InvalidParameter):
        build(parse_spec("D:1"))


def test_agl_order_and_frobenius():
    for p in (5, 7, 11, 13):
        G = build(parse_spec(f"AGL1:{p}"))[0]
        H = select_subgroup(G, "stab:1")
        assert G.order() == p * (p - 1)
        assert G.is_transitive()
        K = p_core(G, p)
        assert K.order() == p
        assert is_frobenius_product(G, K, H).passed


def test_agl_requires_prime():
    with pytest.raises(NotPrime):
        build(parse_spec("AGL1:6"))


def test_primitive_root_determinism():
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(11) == 2
    assert smallest_primitive_root(13) == 2


def test_psl2_orders_and_simplicity():
    for q in (5, 7, 13, 17):
        G, _ = build(parse_spec(f"PSL2:{q}"))
        assert G.degree == q + 1
        assert G.order() == q * (q * q - 1) // 2
    for q in (5, 7, 13):
        G, _ = build(parse_spec(f"PSL2:{q}"))
        assert is_simple(G)


def test_psl2_requires_odd_prime():
    with pytest.raises(NotPrime):
        build(parse_spec("PSL2:9"))
    with pytest.raises(NotPrime):
        build(parse_spec("PSL2:2"))


def test_psl2_17_selector(psl2_17):
    G = build(parse_spec("PSL2:17"))[0]
    H = select_subgroup(G, "syl:2")
    assert G.order() == 2448
    assert H.order() == 16


def test_product_builder():
    G, _ = build(parse_spec("PROD(S:3,C:2)"))
    assert G.order() == 12
    assert G.degree == 5
    G, _ = build(parse_spec("PROD(C:2,C:2)"))
    assert G.order() == 4 and is_abelian(G)
    G, _ = build(parse_spec("PROD(S:3,PROD(C:2,C:2))"))
    assert G.order() == 24
    assert G.order() == brute_order(list(G.generators), G.degree)


def test_builders_are_deterministic():
    for name in ("S:4", "A:5", "D:6", "AGL1:7", "PSL2:5", "PROD(S:3,C:2)"):
        g1, _ = build(parse_spec(name))
        g2, _ = build(parse_spec(name))
        assert g1.generators == g2.generators


def test_spec_string_roundtrip():
    for name in ("S:4", "PSL2:17", "PROD(S:3,C:2)", "FILE:some/path.grp"):
        assert str(parse_spec(name)) == name


def test_parse_spec_rejects_garbage():
    for bad in ("X:4", "S", "S:x", "PROD(S:3)"):
        with pytest.raises(InvalidParameter):
            parse_spec(bad)


def test_gens_selector(s4):
    G = build(parse_spec("S:4"))[0]
    H = select_subgroup(G, "gens:(1 2)(3 4)|(1 3)(2 4)")
    assert H.order() == 4


def test_gens_selector_not_contained():
    with pytest.raises(SubgroupNotContained):
        select_subgroup(build(parse_spec("A:4"))[0], "gens:(1 2)")


def test_gens_selector_lets_other_errors_through(s3, monkeypatch):
    # only a generator outside the group means "not contained"
    def bound_hit(G, gens):
        raise OrderTooLarge("bound hit while building the subgroup")

    monkeypatch.setattr(catalog, "subgroup", bound_hit)
    with pytest.raises(OrderTooLarge):
        select_subgroup(s3, "gens:(1 2)")


# -- group files ---------------------------------------------------------------


def test_group_file_s3():
    G, sub = parse_group_file("degree 3\ngen (1 2)\ngen (2 3)\n")
    assert G.order() == 6
    assert sub is None


def test_group_file_with_subgroup():
    G, sub = parse_group_file(
        "degree 4\ngen (1 2)(3 4)\ngen (1 3)(2 4)\nsgen (1 2)(3 4)\n"
    )
    assert G.order() == 4
    assert sub is not None and sub.order() == 2


def test_group_file_trivial():
    G, sub = parse_group_file("degree 2\n")
    assert G.order() == 1
    assert G.degree == 2


def test_group_file_comments_and_blanks():
    text = "# header\n\ndegree 4\n# gens follow\ngen (1 2 3 4)\n\n"
    G, _ = parse_group_file(text)
    assert G.order() == 4


def test_group_file_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_group_file("degree 3\ngen (1 5)\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_group_file("gen (1 2)\n")
    with pytest.raises(SubgroupNotContained):
        parse_group_file("degree 3\ngen (1 2 3)\nsgen (1 2)\n")


def test_group_file_sgen_outside_the_group_is_named():
    # the second sgen lies outside the cyclic group of order 3
    with pytest.raises(SubgroupNotContained, match=r"sgen .*\(1 2\)"):
        parse_group_file("degree 3\ngen (1 2 3)\nsgen (1 3 2)\nsgen (1 2)\n")


def test_file_spec_roundtrip(tmp_path):
    path = tmp_path / "klein.grp"
    path.write_text("degree 4\ngen (1 2)(3 4)\ngen (1 3)(2 4)\nsgen (1 2)(3 4)\n")
    G, H = build(parse_spec(f"FILE:{path}"))
    assert G.order() == 4 and H.order() == 2


def test_default_sweep_contents():
    specs = [str(s) for s in default_sweep()]
    for required in ("S:4", "D:12", "AGL1:13", "PSL2:17", "PSL2:13"):
        assert required in specs
    assert len(specs) == len(set(specs))
    for spec in default_sweep(max_order=100):
        G, _ = build(spec)
        assert G.order() <= 100
