"""The JSON workspace format: loading, validation, canonical serialization.

A workspace holds symbolic schemes, morphisms, localization triples, the
base Witt ring, module presentations, registered maps, basis candidates
and localization ledgers, all by name.  Every load-time axiom of the
module layer is validated before any command runs, so a workspace object
in hand is a consistent one.

All group data in files uses *presentation* coordinates (over the declared
generators); the engine converts to canonical coordinates on load and back
on save.  Serialization is canonical: maps are written in sorted key
order, so identical workspaces produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .abelian import FgAbGroup, GroupHom
from .align import AlignmentClass
from .basis import BasisCandidate, BasisMember, LedgerPair, LocalizationLedger, union_bases
from .errors import ParseError, TypeMismatch, ValidationError
from .expr import ExprParser
from .f2 import F2Map, F2Space
from .module import (
    BaseWittRing,
    RegisteredMap,
    WittModulePresentation,
    block_geometry,
    block_pieces,
    default_block_transport,
    validate_registered_map,
)
from .schemes import (
    Localization,
    MorphismDescriptor,
    ProperData,
    SchemeDescriptor,
    identity_morphism,
)


# ---------------------------------------------------------------------------
# decoding helpers


def _group_from_doc(doc, names=None):
    if "invariants" in doc:
        return FgAbGroup.from_invariants(list(doc["invariants"]), names=names)
    gens = doc.get("generators", [])
    rels = doc.get("relations", [])
    return FgAbGroup(rels, ngens=len(gens), names=gens or names)


def _group_to_doc(group):
    return {
        "generators": list(group.names),
        "relations": [list(r) for r in group.relation_rows],
    }


def _element(group, coords):
    return group.from_presentation(list(coords))


def _element_doc(group, el):
    return list(group.lift_to_presentation(el))


def _transport_doc(align):
    return {
        "m": _element_doc(align.m.group, align.m),
        "u": list(align.u),
    }


def _bilinear_to_canonical(src1, src2, tgt, table):
    """Presentation-level bilinear table -> canonical-coordinates table."""
    out = []
    for a in range(src1.rank):
        lift_a = src1.lift_to_presentation(
            src1.element([1 if t == a else 0 for t in range(src1.rank)])
        )
        row = []
        for b in range(src2.rank):
            lift_b = src2.lift_to_presentation(
                src2.element([1 if t == b else 0 for t in range(src2.rank)])
            )
            acc = tgt.zero()
            for g, cg in enumerate(lift_a):
                if cg == 0:
                    continue
                for h, ch in enumerate(lift_b):
                    if ch == 0:
                        continue
                    acc = acc + (cg * ch) * _element(tgt, table[g][h])
            row.append(list(acc.coords))
        out.append(row)
    return out


def _bilinear_to_doc(src1, src2, tgt, table):
    """Canonical table -> presentation-level table for saving."""
    out = []
    for g in range(src1.ngens):
        a_el = src1.from_presentation([1 if t == g else 0 for t in range(src1.ngens)])
        row = []
        for h in range(src2.ngens):
            b_el = src2.from_presentation(
                [1 if t == h else 0 for t in range(src2.ngens)]
            )
            acc = tgt.zero()
            for a, ca in enumerate(a_el.coords):
                if ca == 0:
                    continue
                for b, cb in enumerate(b_el.coords):
                    if cb == 0:
                        continue
                    acc = acc + (ca * cb) * tgt.element(table[a][b])
            row.append(_element_doc(tgt, acc))
        out.append(row)
    return out


def _matrix_to_canonical(src, tgt, images):
    """Presentation-level columns -> canonical columns via a hom build."""
    hom = GroupHom.from_presentation(src, tgt, [list(c) for c in images], check=True)
    return [list(c) for c in hom.cols]


def _matrix_to_doc(src, tgt, cols):
    images = []
    for g in range(src.ngens):
        el = src.from_presentation([1 if t == g else 0 for t in range(src.ngens)])
        acc = tgt.zero()
        for c, col in zip(el.coords, cols):
            acc = acc + c * tgt.element(col)
        images.append(_element_doc(tgt, acc))
    return images


# ---------------------------------------------------------------------------
# the workspace


@dataclass
class Workspace:
    version: str
    base: SchemeDescriptor
    schemes: dict
    morphisms: dict
    localizations: dict
    base_ring: object = None
    presentations: dict = field(default_factory=dict)
    registered_maps: dict = field(default_factory=dict)
    candidates: dict = field(default_factory=dict)
    candidate_specs: dict = field(default_factory=dict)
    ledgers: dict = field(default_factory=dict)

    def parser(self):
        return ExprParser(self.morphisms, self.localizations)

    def scheme(self, name):
        if name not in self.schemes:
            raise TypeMismatch(f"unknown scheme {name!r}")
        return self.schemes[name]

    def morphism(self, name):
        if name not in self.morphisms:
            raise TypeMismatch(f"unknown morphism {name!r}")
        return self.morphisms[name]

    def presentation(self, name):
        if name not in self.presentations:
            raise TypeMismatch(f"unknown presentation {name!r}")
        return self.presentations[name]

    def candidate(self, name):
        if name not in self.candidates:
            raise TypeMismatch(f"unknown basis candidate {name!r}")
        return self.candidates[name]

    def ledger(self, name):
        if name not in self.ledgers:
            raise TypeMismatch(f"unknown ledger {name!r}")
        return self.ledgers[name]


def parse_workspace(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads(text)


def loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), line=exc.lineno, column=exc.colno) from exc
    return workspace_from_dict(doc)


def workspace_from_dict(doc):
    version = doc.get("version", "1")
    base_name = doc["base"]

    schemes = {}
    for name, sdoc in doc.get("schemes", {}).items():
        pic = _group_from_doc(sdoc["pic"])
        units = F2Space(tuple(sdoc.get("units", ())))
        schemes[name] = SchemeDescriptor(
            name,
            pic,
            units,
            supports=tuple(sdoc.get("supports", ("total",))),
            support_inclusions=tuple(
                tuple(p) for p in sdoc.get("support_inclusions", ())
            ),
        )
    if base_name not in schemes:
        raise ValidationError("base_scheme", f"base {base_name!r} is not declared")
    base = schemes[base_name]

    morphisms = {}
    for name, mdoc in doc.get("morphisms", {}).items():
        source = schemes[mdoc["source"]]
        target = schemes[mdoc["target"]]
        pic_map = GroupHom.from_presentation(
            target.pic,
            source.pic,
            [list(c) for c in mdoc.get("pic_map", [])]
            or [[0] * source.pic.ngens for _ in range(target.pic.ngens)],
        )
        unit_map = F2Map(
            target.units,
            source.units,
            [tuple(c) for c in mdoc.get("unit_map", [])]
            or [source.units.zero()] * target.units.dim,
        )
        proper = None
        pdoc = mdoc.get("proper")
        if pdoc is not None:
            proper = ProperData(
                _element(source.pic, pdoc.get("omega", [0] * source.pic.ngens)),
                int(pdoc.get("dim", 0)),
            )
        morphisms[name] = MorphismDescriptor(
            name,
            source,
            target,
            pic_map,
            unit_map,
            proper_data=proper,
            annotations=frozenset(mdoc.get("annotations", ())),
            support_map=dict(mdoc.get("support_map", {})),
            push_support_map=dict(mdoc.get("push_support_map", {})),
        )

    # wire structure morphisms; the base gets the identity
    base.structure_map = identity_morphism(base)
    for name, sdoc in doc.get("schemes", {}).items():
        struct = sdoc.get("structure")
        if name == base_name:
            if struct is not None:
                raise ValidationError(
                    "base_structure", "the base scheme must have structure null"
                )
            continue
        if struct is None:
            continue
        pi = morphisms.get(struct)
        if pi is None or pi.source is not schemes[name] or pi.target is not base:
            raise ValidationError(
                "structure_morphism",
                f"scheme {name}: structure {struct!r} must map it to the base",
            )
        schemes[name].structure_map = pi

    localizations = {}
    for name, ldoc in doc.get("localizations", {}).items():
        localizations[name] = Localization(
            name,
            schemes[ldoc["scheme"]],
            ldoc["closed"],
            schemes[ldoc["open_scheme"]],
            morphisms[ldoc["open_immersion"]],
        )

    ring = None
    rdoc = doc.get("base_ring")
    if rdoc is not None:
        ring_scheme = schemes[rdoc.get("scheme", base_name)]
        pieces = {}
        groups_by_key = {}
        for pdoc in rdoc.get("pieces", []):
            grp = _group_from_doc(pdoc["group"])
            key = (int(pdoc["degree"]) % 4, tuple(pdoc["class"]))
            pieces[key] = grp
            groups_by_key[key] = grp
        reps = {
            tuple(r["class"]): _element(ring_scheme.pic, r["bundle"])
            for r in rdoc.get("representatives", [])
        }
        products = {}
        for pr in rdoc.get("products", []):
            d1, k1 = int(pr["left"][0]) % 4, tuple(pr["left"][1])
            d2, k2 = int(pr["right"][0]) % 4, tuple(pr["right"][1])
            src1 = pieces.get((d1, k1), FgAbGroup.trivial())
            src2 = pieces.get((d2, k2), FgAbGroup.trivial())
            k12 = tuple(
                (a + b) % 2 for a, b in zip(k1, k2)
            )
            tgt = pieces.get(((d1 + d2) % 4, k12), FgAbGroup.trivial())
            table = _bilinear_to_canonical(src1, src2, tgt, pr["table"])
            tr = pr.get("transport")
            tr_data = None
            if tr is not None:
                tr_data = (
                    list(_element(ring_scheme.pic, tr["m"]).coords),
                    tuple(tr["u"]),
                )
            products[((d1, k1), (d2, k2))] = (table, tr_data)
        from .abelian import mod2_reduction as _m2

        zero_key = (0,) * _m2(ring_scheme.pic)[0].dim
        unit_grp = pieces.get((0, zero_key), FgAbGroup.trivial())
        unit = _element(unit_grp, rdoc["unit"]).coords
        unit_classes = {
            label: _element(unit_grp, coords).coords
            for label, coords in rdoc.get("unit_classes", {}).items()
        }
        aut = {}
        for adoc in rdoc.get("aut_torsion", []):
            blocks = {}
            for bdoc in adoc.get("blocks", []):
                key = (int(bdoc["degree"]) % 4, tuple(bdoc["class"]))
                grp = pieces.get(key, FgAbGroup.trivial())
                blocks[key] = _matrix_to_canonical(grp, grp, bdoc["matrix"])
            aut[int(adoc["generator"])] = blocks
        ring = BaseWittRing(
            rdoc.get("name", "ring"),
            ring_scheme,
            pieces,
            reps,
            unit,
            products=products,
            unit_class=unit_classes,
            aut_torsion=aut,
        )

    presentations = {}
    for name, ndoc in doc.get("presentations", {}).items():
        scheme = schemes[ndoc["scheme"]]
        pieces = {}
        for pdoc in ndoc.get("pieces", []):
            key = (int(pdoc["degree"]) % 4, tuple(pdoc["class"]))
            pieces[key] = _group_from_doc(pdoc["group"])
        reps = {
            tuple(r["class"]): _element(scheme.pic, r["rep"])
            for r in ndoc.get("classes", [])
        }
        action = {}
        for adoc in ndoc.get("action", []):
            i = int(adoc["ring_degree"]) % 4
            kappa = tuple(adoc["ring_class"])
            k = int(adoc["degree"]) % 4
            p = tuple(adoc["class"])
            src1 = ring.piece(i, kappa)
            src2 = pieces.get((k, p), FgAbGroup.trivial())
            tgt = pieces.get(((i + k) % 4, p), FgAbGroup.trivial())
            table = _bilinear_to_canonical(src1, src2, tgt, adoc["table"])
            tr = adoc.get("transport")
            tr_data = None
            if tr is not None:
                tr_data = (
                    list(_element(scheme.pic, tr["m"]).coords),
                    tuple(tr["u"]),
                )
            action[((i, kappa), (k, p))] = (table, tr_data)
        aut = {}
        for adoc in ndoc.get("aut_torsion", []):
            blocks = {}
            for bdoc in adoc.get("blocks", []):
                key = (int(bdoc["degree"]) % 4, tuple(bdoc["class"]))
                grp = pieces.get(key, FgAbGroup.trivial())
                blocks[key] = _matrix_to_canonical(grp, grp, bdoc["matrix"])
            aut[int(adoc["generator"])] = blocks
        presentations[name] = WittModulePresentation(
            name,
            scheme,
            ring,
            ndoc.get("support", scheme.total_support),
            pieces,
            reps,
            action=action,
            aut_torsion=aut,
        )

    registered = {}
    for name, mdoc in doc.get("registered_maps", {}).items():
        morphism = morphisms[mdoc["morphism"]] if mdoc.get("morphism") else None
        triple = (
            localizations[mdoc["localization"]]
            if mdoc.get("localization")
            else None
        )
        rmap = RegisteredMap(
            name,
            mdoc["kind"],
            presentations[mdoc["source"]],
            presentations[mdoc["target"]],
            morphism,
            triple,
        )
        geo = rmap.geometry  # an unknown kind fails here, before any block
        if geo.morphism_from_triple and morphism is None and triple is not None:
            rmap.morphism = triple.upsilon
        for bdoc in mdoc.get("blocks", []):
            key = tuple(bdoc["class"])
            tr = bdoc.get("transport")
            if tr is None:
                align = default_block_transport(rmap, key)
            else:
                _, _, scheme, start, _ = block_geometry(rmap, key)
                m_el = _element(scheme.pic, tr["m"])
                align = AlignmentClass(
                    scheme.bundle(start),
                    scheme.bundle(start + 2 * m_el),
                    m_el,
                    tuple(tr["u"]),
                )
            matrices = {}
            for deg_str, mat in bdoc.get("matrices", {}).items():
                k_src = int(deg_str) % 4
                src_grp, tgt_grp = block_pieces(rmap, key, k_src)
                matrices[k_src] = _matrix_to_canonical(src_grp, tgt_grp, mat)
            rmap.blocks[key] = (align, matrices)
        validate_registered_map(rmap)
        rmap.source.register_map(rmap)
        registered[name] = rmap

    ws = Workspace(
        version,
        base,
        schemes,
        morphisms,
        localizations,
        base_ring=ring,
        presentations=presentations,
        registered_maps=registered,
    )

    def build_member(pres, mdoc):
        key = tuple(mdoc["class"])
        degree = int(mdoc["degree"])
        piece = pres.piece(degree, key)
        coords = piece.from_presentation(list(mdoc["coords"]))
        twist = (
            _element(pres.scheme.pic, mdoc["twist"])
            if mdoc.get("twist") is not None
            else None
        )
        transport_doc = mdoc.get("transport")
        transport_align = None
        if transport_doc is not None:
            actual = twist if twist is not None else pres.rep(key)
            transport_align = AlignmentClass(
                pres.rep_bundle(key),
                pres.scheme.bundle(actual),
                _element(pres.scheme.pic, transport_doc["m"]),
                tuple(transport_doc["u"]),
            )
        w = pres.element(degree, key, coords, twist=twist, transport=transport_align)
        return BasisMember(mdoc["id"], degree, w)

    specs = doc.get("basis_candidates", {})
    built = {}

    def build_candidate(name, stack=()):
        if name in built:
            return built[name]
        if name in stack:
            raise ValidationError(
                "candidate_cycle", f"candidate {name!r} references itself"
            )
        spec = specs[name]
        if "union_of" in spec:
            parts = [build_candidate(n, stack + (name,)) for n in spec["union_of"]]
            out = parts[0]
            for nxt in parts[1:]:
                res = union_bases(
                    out, nxt, require_disjoint=spec.get("require_independent", False)
                )
                out = res.candidate
            built[name] = out
            return out
        pres = presentations[spec["presentation"]]
        members = [build_member(pres, m) for m in spec.get("members", [])]
        cand = BasisCandidate(
            pres, members, [tuple(k) for k in spec.get("scope", [])]
        )
        built[name] = cand
        return cand

    for name in specs:
        ws.candidates[name] = build_candidate(name)
    ws.candidate_specs = specs

    for name, ldoc in doc.get("ledgers", {}).items():
        zp = presentations[ldoc["closed"]]
        yp = presentations[ldoc["total"]]
        up = presentations[ldoc["open"]]

        def build_pairs(key, left_pres, right_pres):
            pairs = []
            for pdoc in ldoc.get(key, []):
                left = build_member(left_pres, pdoc["left"])
                right = build_member(right_pres, pdoc["right"])
                witness = None
                wdoc = pdoc.get("witness")
                if wdoc is not None:
                    src_twist = pdoc.get("witness_source")
                    raise_scheme = right_pres.scheme
                    m_el = _element(raise_scheme.pic, wdoc["m"])
                    src = (
                        _element(raise_scheme.pic, src_twist)
                        if src_twist is not None
                        else right.w.twist - 2 * m_el
                    )
                    witness = AlignmentClass(
                        raise_scheme.bundle(src),
                        raise_scheme.bundle(src + 2 * m_el),
                        m_el,
                        tuple(wdoc["u"]),
                    )
                pairs.append(LedgerPair(left, right, witness))
            return tuple(pairs)

        ws.ledgers[name] = LocalizationLedger(
            name,
            localizations[ldoc["localization"]],
            zp,
            yp,
            up,
            registered[ldoc["ext_map"]],
            registered[ldoc["restrict_map"]],
            registered[ldoc["bord_map"]],
            scope=[tuple(k) for k in ldoc.get("scope", [])],
            e_pairs=build_pairs("e_pairs", zp, yp),
            upsilon_pairs=build_pairs("upsilon_pairs", yp, up),
            bord_pairs=build_pairs("bord_pairs", up, zp),
        )
    return ws


# ---------------------------------------------------------------------------
# serialization


def workspace_to_dict(ws):
    doc = {"version": ws.version, "base": ws.base.name}
    doc["schemes"] = {}
    for name, s in sorted(ws.schemes.items()):
        doc["schemes"][name] = {
            "pic": _group_to_doc(s.pic),
            "units": list(s.units.labels),
            "supports": list(s.supports),
            "support_inclusions": sorted(
                [list(p) for p in s.support_inclusions if p[0] != p[1]]
            ),
            "structure": (
                None
                if s is ws.base or s.structure_map is None
                else s.structure_map.name
            ),
        }
    doc["morphisms"] = {}
    for name, m in sorted(ws.morphisms.items()):
        doc["morphisms"][name] = {
            "source": m.source.name,
            "target": m.target.name,
            "pic_map": _matrix_to_doc(
                m.target.pic, m.source.pic, m.pic_pullback.cols
            ),
            "unit_map": [list(c) for c in m.unit_pullback.cols],
            "proper": (
                {
                    "omega": _element_doc(
                        m.source.pic, m.proper_data.canonical_bundle
                    ),
                    "dim": m.proper_data.relative_dimension,
                }
                if m.proper_data
                else None
            ),
            "annotations": sorted(m.annotations),
            "support_map": dict(sorted(m.support_map.items())),
            "push_support_map": dict(sorted(m.push_support_map.items())),
        }
    doc["localizations"] = {
        name: {
            "scheme": t.scheme.name,
            "closed": t.closed_label,
            "open_scheme": t.open_scheme.name,
            "open_immersion": t.upsilon.name,
        }
        for name, t in sorted(ws.localizations.items())
    }
    if ws.base_ring is not None:
        ring = ws.base_ring
        doc["base_ring"] = {
            "name": ring.name,
            "scheme": ring.scheme.name,
            "pieces": [
                {
                    "degree": d,
                    "class": list(k),
                    "group": _group_to_doc(grp),
                }
                for (d, k), grp in sorted(ring.pieces.items())
            ],
            "representatives": [
                {"class": list(k), "bundle": _element_doc(ring.scheme.pic, v)}
                for k, v in sorted(ring.representatives.items())
            ],
            "unit": _element_doc(ring.piece(0, ring.zero_key), ring.unit),
            "products": [
                {
                    "left": [d1, list(k1)],
                    "right": [d2, list(k2)],
                    "table": _bilinear_to_doc(
                        ring.piece(d1, k1),
                        ring.piece(d2, k2),
                        ring.piece(
                            d1 + d2,
                            tuple((a + b) % 2 for a, b in zip(k1, k2)),
                        ),
                        table,
                    ),
                    "transport": _transport_doc(tr),
                }
                for ((d1, k1), (d2, k2)), (table, tr) in sorted(
                    ring.products.items()
                )
            ],
            "unit_classes": {
                label: _element_doc(ring.piece(0, ring.zero_key), el)
                for label, el in sorted(ring.unit_class_map.items())
            },
            "aut_torsion": [
                {
                    "generator": gi,
                    "blocks": [
                        {
                            "degree": d,
                            "class": list(k),
                            "matrix": _matrix_to_doc(
                                ring.piece(d, k), ring.piece(d, k), cols
                            ),
                        }
                        for (d, k), cols in sorted(blocks.items())
                    ],
                }
                for gi, blocks in sorted(ring.aut_tables.items())
            ],
        }
    doc["presentations"] = {}
    for name, pres in sorted(ws.presentations.items()):
        doc["presentations"][name] = {
            "scheme": pres.scheme.name,
            "support": pres.support,
            "classes": [
                {"class": list(k), "rep": _element_doc(pres.scheme.pic, v)}
                for k, v in sorted(pres.representatives.items())
            ],
            "pieces": [
                {"degree": d, "class": list(k), "group": _group_to_doc(grp)}
                for (d, k), grp in sorted(pres.pieces.items())
            ],
            "action": [
                {
                    "ring_degree": i,
                    "ring_class": list(kappa),
                    "degree": k,
                    "class": list(p),
                    "table": _bilinear_to_doc(
                        ws.base_ring.piece(i, kappa),
                        pres.piece(k, p),
                        pres.piece(i + k, p),
                        entry.table,
                    ),
                    "transport": _transport_doc(entry.align),
                }
                for ((i, kappa), (k, p)), entry in sorted(pres.action.items())
            ],
            "aut_torsion": [
                {
                    "generator": gi,
                    "blocks": [
                        {
                            "degree": d,
                            "class": list(k),
                            "matrix": _matrix_to_doc(
                                pres.piece(d, k), pres.piece(d, k), cols
                            ),
                        }
                        for (d, k), cols in sorted(blocks.items())
                    ],
                }
                for gi, blocks in sorted(pres.aut_tables.items())
            ],
        }
    doc["registered_maps"] = {}
    for name, rmap in sorted(ws.registered_maps.items()):
        blocks = []
        for key, (align, matrices) in sorted(rmap.blocks.items()):
            mats = {}
            for k_src, cols in sorted(matrices.items()):
                src_grp, tgt_grp = block_pieces(rmap, key, k_src)
                mats[str(k_src)] = _matrix_to_doc(src_grp, tgt_grp, cols)
            blocks.append(
                {
                    "class": list(key),
                    "transport": _transport_doc(align),
                    "matrices": mats,
                }
            )
        doc["registered_maps"][name] = {
            "kind": rmap.kind,
            "source": rmap.source.name,
            "target": rmap.target.name,
            "morphism": rmap.morphism.name if rmap.morphism else None,
            "localization": rmap.triple.name if rmap.triple else None,
            "blocks": blocks,
        }
    doc["basis_candidates"] = ws.candidate_specs
    doc["ledgers"] = {}
    for name, led in sorted(ws.ledgers.items()):
        def pair_doc(pairs, left_pres, right_pres):
            out = []
            for p in pairs:
                entry = {
                    "left": _member_doc(left_pres, p.left),
                    "right": _member_doc(right_pres, p.right),
                }
                if p.witness is not None:
                    entry["witness"] = _transport_doc(p.witness)
                    entry["witness_source"] = _element_doc(
                        right_pres.scheme.pic, p.witness.source.cls
                    )
                out.append(entry)
            return out

        doc["ledgers"][name] = {
            "localization": led.triple.name,
            "closed": led.closed_pres.name,
            "total": led.total_pres.name,
            "open": led.open_pres.name,
            "ext_map": led.ext_map.name,
            "restrict_map": led.restrict_map.name,
            "bord_map": led.bord_map.name,
            "scope": [list(k) for k in led.scope],
            "e_pairs": pair_doc(led.e_pairs, led.closed_pres, led.total_pres),
            "upsilon_pairs": pair_doc(
                led.upsilon_pairs, led.total_pres, led.open_pres
            ),
            "bord_pairs": pair_doc(led.bord_pairs, led.open_pres, led.closed_pres),
        }
    return doc


def _member_doc(pres, member):
    return {
        "id": member.member_id,
        "degree": member.degree,
        "class": list(member.w.key),
        "coords": list(
            member.w.piece_group().lift_to_presentation(member.w.coords)
        ),
        "twist": _element_doc(pres.scheme.pic, member.w.twist),
        "transport": _transport_doc(member.w.transport),
    }


def serialize(ws):
    return json.dumps(workspace_to_dict(ws), indent=2, sort_keys=True) + "\n"


def fixture_path(name):
    """Path of a fixture shipped with the package."""
    from importlib import resources

    base = resources.files("wtc") / "fixtures"
    path = base / (name if name.endswith(".json") else f"{name}.json")
    return str(path)
