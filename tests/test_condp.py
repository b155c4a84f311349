import hashlib
import itertools
import json
import random

import pytest

from xmodkit import condp, xmod
from xmodkit.errors import GroupError
from xmodkit.groups import compose, cyclic_group, free_module_cover, z4_module
from xmodkit.actions import semidirect_product, trivial_action
from xmodkit.condp import (
    MatrixZ4, check_P_instance, compose_linear, lifting_oracle_z4,
    non_schreier_demo, pi0_preservation_suite, pipeline_diagram_P,
    pipeline_pairs, projective_z4, projectivity_survey, split_exact_z4,
    theorem_P_transfer_check,
)


def _pack(digits):
    """A digit tuple mod 4 as a packed int, digit j in bits 2j and 2j + 1."""
    return sum((d & 3) << 2 * j for j, d in enumerate(digits))


def _unpack(y, n):
    return tuple(y >> 2 * j & 3 for j in range(n))


def _matrix(src_rank, tgt_rank, images):
    """The matrix with the given digit-tuple basis images."""
    return MatrixZ4(src_rank, tgt_rank, map(_pack, images))


def _apply(f, x):
    """The image of a digit tuple under f, as a digit tuple."""
    return _unpack(f._apply(_pack(x)), f.tgt_rank)


def test_matrices_are_the_dense_homs():
    """Every matrix between ranks up to two is a hom of the dense modules, with
    the dense image order, and composes as the dense homs do."""
    modules = [z4_module(n, 0) for n in range(3)]
    homs = {}
    for m, n in itertools.product(range(3), repeat=2):
        for digits in itertools.product(range(4), repeat=m * n):
            f = _matrix(m, n, (digits[i * n:(i + 1) * n] for i in range(m)))
            # a checked GroupHom: raises unless the matrix is a hom
            h = condp._digit_hom(modules[m], modules[n], lambda x: _apply(f, x))
            assert len(f.image_span()) == len(h.image_elements)
            homs.setdefault((m, n), []).append((f, h))
    rng = random.Random(0)
    for m, n, k in itertools.product(range(3), repeat=3):
        for _ in range(8):
            g, hg = rng.choice(homs[m, n])
            f, hf = rng.choice(homs[n, k])
            fg = compose_linear(f, g)
            assert condp._digit_hom(modules[m], modules[k],
                                    lambda x: _apply(fg, x)).table == compose(hf, hg).table
    with pytest.raises(GroupError, match="composition mismatch"):
        compose_linear(_matrix(1, 1, ((1,),)), _matrix(1, 2, ((1, 0),)))


def test_split_exact_detects_failure():
    """Each conjunct fires on free modules; a broken complex also breaks exactness."""
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    k2, p2 = _matrix(1, 2, ((0, 1),)), _matrix(2, 1, ((1,), (0,)))
    s2 = _matrix(1, 2, ((1, 0),))
    p3, s3 = _matrix(3, 1, ((1,), (0,), (0,))), _matrix(1, 3, (e1,))
    cases = {  # name: (k, p, s), the report keys that must read False
        "none": ((k2, p2, s2), set()),
        "section": ((k2, p2, _matrix(1, 2, ((2, 0),))), {"section", "ok"}),
        "kernel_injective": ((_matrix(3, 3, (e2, e3, e2)), p3, s3),
                             {"kernel_injective", "ok"}),
        "image_equals_kernel": ((_matrix(1, 3, (e2,)), p3, s3),
                                {"image_equals_kernel", "ok"}),
        "complex": ((s2, p2, s2), {"complex", "image_equals_kernel", "ok"}),
    }
    for name, (row, failing) in cases.items():
        rep = split_exact_z4(*row)
        assert {key for key, ok in rep.items() if not ok} == failing, name
    assert split_exact_z4(s2, p2, s2) == {
        "section": True, "complex": False, "kernel_injective": True,
        "image_equals_kernel": False, "ok": False}
    with pytest.raises(GroupError, match="maps do not form a row"):
        split_exact_z4(k2, p3, s2)


def test_matrices_compare_by_ranks_and_columns():
    """Digits are read mod 4, a vector sum carries within its digit, and a
    matrix compares unequal to anything that is not one."""
    assert _matrix(1, 1, ((5,),)) == _matrix(1, 1, ((1,),))
    assert _apply(_matrix(1, 2, ((-1, 6),)), (1,)) == (3, 2)
    assert _apply(_matrix(2, 1, ((1,), (1,))), (1, 2)) == (3,)
    assert MatrixZ4(1, 1, (1,)) != MatrixZ4(1, 2, (1,))
    m = _matrix(1, 1, ((1,),))
    assert m.__eq__(None) is NotImplemented
    assert m != None and m != (1,)


# The digit-tuple arithmetic `MatrixZ4` ran before its vectors were packed
# into ints, kept as the reference the packed lanes must agree with.

def _ref_apply(images, tgt_rank, x):
    return tuple(sum(c * v[j] for c, v in zip(x, images)) % 4
                 for j in range(tgt_rank))


def _ref_span(images, tgt_rank):
    zero = (0,) * tgt_rank
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for v in images:
                y = tuple((a + b) % 4 for a, b in zip(x, v))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def test_packed_lanes_match_digit_tuples():
    """Image sets, image sizes, images of vectors and composition agree with
    the digit-tuple reference on seeded random matrices at ranks 0..8 and on
    the all-3 matrices, where every digit of every sum carries."""
    rng = random.Random(25)

    def digits(n):
        return tuple(rng.randrange(4) for _ in range(n))

    mats = {}
    for m, n in itertools.product(range(9), repeat=2):
        mats[m, n] = [tuple(digits(n) for _ in range(m)), ((3,) * n,) * m]
    for (m, n), cases in mats.items():
        for images in cases:
            f = _matrix(m, n, images)
            for x in [digits(m) for _ in range(6)] + [(3,) * m, (2,) * m]:
                assert _apply(f, x) == _ref_apply(images, n, x), (images, x)
            if m + n <= 12 or m == n == 8:
                span = f.image_span()
                assert {_unpack(y, n) for y in span} == _ref_span(images, n), images
                assert all(0 <= y < 4 ** n for y in span)
    assert len(_matrix(8, 8, ((3,) * 8,) * 8).image_span()) == 4
    for m, n, k in itertools.product(range(9), repeat=3):
        for g_images, f_images in zip(mats[m, n], mats[n, k]):
            fg = compose_linear(_matrix(n, k, f_images), _matrix(m, n, g_images))
            want = tuple(_ref_apply(f_images, k, v) for v in g_images)
            assert fg == _matrix(m, k, want), (f_images, g_images)


def test_projectivity_criterion_and_oracle():
    assert projective_z4(z4_module(2, 0))
    assert not projective_z4(z4_module(1, 1))
    assert not projective_z4(cyclic_group(2))
    with pytest.raises(GroupError):
        projective_z4(cyclic_group(3))
    assert lifting_oracle_z4(z4_module(2, 0))
    assert not lifting_oracle_z4(cyclic_group(2))
    R, epi = free_module_cover(z4_module(1, 1))
    assert R.order == 16 and epi.is_surjective()
    with pytest.raises(GroupError, match="cap"):
        lifting_oracle_z4(z4_module(0, 6))


def test_survey_frozen():
    rows = projectivity_survey()
    assert len(rows) == 16
    assert all(r["ok"] for r in rows)
    assert sum(1 for r in rows if r["oracle"] is not None) == 15
    assert [(r["n4"], r["n2"]) for r in rows if r["oracle"] is None] == [(0, 6)]
    assert [(r["n4"], r["n2"]) for r in rows if r["criterion"]] == [
        (0, 0), (1, 0), (2, 0), (3, 0)]
    orders = sorted(r["order"] for r in rows)
    assert orders[0] == 1 and orders[-1] == 64


def test_survey_refuses_caps_outside_the_dense_tables(monkeypatch):
    monkeypatch.setattr(condp, "z4_module", lambda *a: pytest.fail("a module was built"))
    for cap, message in ((0, "survey order cap 0 is below one"),
                         (2048, "survey order cap 2048 exceeds the dense-table cap 1024")):
        with pytest.raises(GroupError) as exc:
            projectivity_survey(cap)
        assert str(exc.value) == message


def test_check_p_instance_modes():
    vac = check_P_instance(semidirect_product(
        trivial_action(cyclic_group(2), z4_module(1, 0))))
    assert vac["vacuous"] and vac["ok"] and not vac["middle_projective"]
    free = check_P_instance(semidirect_product(
        trivial_action(z4_module(1, 0), z4_module(1, 0))))
    assert not free["vacuous"] and free["kernel_projective"] and free["ok"]


def test_pipeline_small_instances():
    rep = pipeline_diagram_P([0, 1, 1], [0, 1])
    assert rep["sizes"] == {"X": 3, "Y": 2, "kernel_rank": 1}
    assert rep["ok"]
    assert all(rep["squares"].values())
    assert rep["materialized"] == {"identity": "success", "collapse": "success"}
    assert rep["objects"]["kernel_flat"] == [4]
    rep0 = pipeline_diagram_P([0], [0])
    assert rep0["sizes"]["kernel_rank"] == 0 and rep0["materialized"] is None
    with pytest.raises(GroupError):
        pipeline_diagram_P([0, 0, 0, 0, 0], [0])
    with pytest.raises(GroupError):
        pipeline_diagram_P([0, 1], [1])


def test_pipeline_rank_two_materializes():
    rep = pipeline_diagram_P([0, 0, 0], [0])
    assert rep["sizes"] == {"X": 3, "Y": 1, "kernel_rank": 2}
    assert rep["objects"]["kernel_total"] == [4, 4, 4, 4]
    assert rep["materialized"] == {"identity": "success", "collapse": "success"}
    assert rep["ok"]


def test_pipeline_builds_each_inclusion_once(monkeypatch):
    """A materialised pipeline embeds the kernel of ext once, then the collapse source's."""
    orders = []
    real = xmod.conjugation_action_on

    def recording(embedding):
        orders.append(embedding.source.order)
        return real(embedding)

    monkeypatch.setattr(xmod, "conjugation_action_on", recording)
    assert pipeline_diagram_P((0, 0, 0), (0,))["ok"]
    assert orders == [16, 64]


def test_pipeline_pairs_count():
    pairs = pipeline_pairs()
    assert len(pairs) == 26
    for f, s in pairs:
        assert all(f[x] in range(len(s)) for x in range(len(f)))
        assert all(f[s[y]] == y for y in range(len(s)))


def test_free_shape_isomorphism_search_decides_both_ways():
    """Where the base order is the square of the carrier order, the shape is
    settled by an isomorphism search: (Z/4)^2 in (Z/4)^4 has the free shape,
    the order-4 subgroup of Z16 does not."""
    assert condp.free_shape_witness(condp._free_inclusion(2, 4)) == {
        "free_shape": True, "reason": "isomorphism-search",
        "base_order": 256, "required": 256}
    z4_in_z16 = xmod.xmod_from_normal_subgroup(cyclic_group(16), [0, 4, 8, 12])
    assert condp.free_shape_witness(z4_in_z16) == {
        "free_shape": False, "reason": "isomorphism-search",
        "base_order": 16, "required": 16}


def test_non_schreier_demo_plain_and_relabeled():
    rep = non_schreier_demo()
    assert rep["ok"]
    assert rep["carrier_order"] == 16 and rep["base_order"] == 64
    assert rep["family"] == {"identity": "success", "collapse-Z2": "success",
                             "collapse-Z4": "success", "merge-cover": "success"}
    assert rep["shape"] == {"free_shape": False, "reason": "order",
                            "base_order": 64, "required": 256}
    again = non_schreier_demo()
    assert again == rep
    rel = non_schreier_demo(relabel_seed=7)
    assert rel["ok"] and rel["relabel_matches"]
    assert rel["relabeled_family"] == rep["family"]


def test_preservation_suite():
    rep = pi0_preservation_suite()
    assert rep["ok"]
    assert len(rep["certified_projective"]) == 3
    assert all(row["ok"] for row in rep["certified_projective"])
    assert [row["has_section"] for row in rep["discrete_sections"]] == [
        True, False, False, True]
    assert all(row["has_section"] == row["pi0_projective"]
               for row in rep["discrete_sections"])
    assert rep["split_rows"] == {"count": 30, "ok": True}
    names = [row["name"] for row in rep["epi_kernel_rows"]]
    assert names == ["inclusion-to-discrete-sign", "conjugation-mod-two",
                     "product-projection", "identity-boundary-to-flat"]
    assert all(row["ok"] for row in rep["epi_kernel_rows"])
    assert rep["left_exactness_failures"] == ["identity-boundary-to-flat"]


def test_transfer_seeded():
    rep = theorem_P_transfer_check(seed=0, count=12)
    assert rep["ok"] and rep["counterexamples"] == 0
    assert rep["vacuous"] == 7 and rep["oracle_checked"] == 4
    assert len(rep["instances"]) == 12
    assert rep["instances"][0]["mode"] == "free"
    again = theorem_P_transfer_check(seed=0, count=12)
    assert again == rep
    other = theorem_P_transfer_check(seed=3, count=6)
    assert other["ok"]


def _digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_pipeline_reports_pinned():
    reports = [pipeline_diagram_P(f, s) for f, s in pipeline_pairs(3)]
    assert _digest(reports) == (
        "19ef5cf96ee28ebfe21c11a309a13f4e800dfed4bf4d69de47ccd792e08a0ef0")
    assert _digest(pipeline_diagram_P([0, 0, 1, 1], [0, 2])) == (
        "f6b4e76541a8084e777bf9fee81420ade6299b67aa08b3efacdfc7ccd95db63e")
    # kernel rank 3, the only shapes whose total kernel reaches rank 6
    for s in range(4):
        assert _digest(pipeline_diagram_P((0, 0, 0, 0), (s,))) == (
            "501f63eec7a3b3c1ceb49f89b350381aef7299ed719ccdf9e5c01e53d546b910")


@pytest.mark.parametrize("seed, digest", [
    (1, "bcbaa160b7b0adc1b16c5ab9cc50b8ace2cc50cf21f213f8f7aba74e671ea03b"),
    (2, "8b9cbfaae456c6ffcfe874661777a4fa1987411c28c3662e49a4f4ce7e2daeab"),
    (3, "ff21bf51f87880911441ca35cc8cebf0cb8882d5a9fff376f4edec6288252c3b"),
    (4, "fc31c758f7285dd0a96912ecb83fc8d99d6465d7b0cdab73d69392935c498da6"),
    (5, "6f4bf72c32102cb835e9202b412c446d657080def23b038aa85d2f0355b9973f"),
])
def test_relabeled_merge_cover_tables_pinned(seed, digest, monkeypatch):
    """The merge cover the relabeled demo certifies, as (fT, fG) tables."""
    epis = []
    real = condp.projective_section

    def recording(epi, ext, **kw):
        epis.append((epi.fT.table, epi.fG.table))
        return real(epi, ext, **kw)

    monkeypatch.setattr(condp, "projective_section", recording)
    assert non_schreier_demo(relabel_seed=seed)["ok"]
    assert len(epis) == 8  # four family members, plain then relabeled
    assert hashlib.sha256(repr(epis[-1]).encode()).hexdigest() == digest


def test_transfer_instances_pinned():
    rep = theorem_P_transfer_check(0, 30)
    assert (rep["vacuous"], rep["oracle_checked"], rep["counterexamples"]) == (
        16, 10, 0)
    assert [r["mode"] for r in rep["instances"][:3]] == ["free", "mixed", "product"]
    assert _digest(rep["instances"]) == (
        "4b486def3f673a2aa349d14952a0cc667f5d801f3816101e9df88c01bfd203af")
