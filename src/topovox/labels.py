"""Closed-form Betti-number labels for the constructions a sample is built from.

A sample is either catalog objects embedded in an empty grid
(``embedded_object`` children of a ``disjoint_union``, labelled by
additivity over disjoint unions) or catalog objects cut out of a solid
n-cube (``cube_complement``, one cavity per cut-out).  Labels are computed
symbolically from construction parameters, never measured from voxels; the
homology engine re-verifies them downstream.

A 4D cut-out is a boundary connected sum with parameters (g, h, i, j),
which count glued copies: g of S1 x B3, h of S2 x B2, i of the factor built
on a genus-j surface.  Validity requires j > 0 whenever i > 0, and j = 0
whenever i = 0; (0, 0, 0, 0) is a plain 4-ball.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .homology import BettiVector
from .seeds import KINDS

FAMILIES = ("cube_complement", "embedded_object", "disjoint_union")

#: Descriptor-level cap on each of g, h, i, j so recipes stay rasterizable
#: within desk-scale grids; it checks manifests read from outside the program.
#: The pure label formulas are not capped.
MAX_GLUE_COUNT = 8


class InvalidDescriptorError(ValueError):
    """Raised when construction parameters violate the family constraints."""


def _validate_ghij(g: int, h: int, i: int, j: int) -> None:
    if min(g, h, i, j) < 0:
        raise InvalidDescriptorError(f"counts must be nonnegative, got {(g, h, i, j)}")
    if i > 0 and j == 0:
        raise InvalidDescriptorError("j must be positive when i > 0")
    if i == 0 and j != 0:
        raise InvalidDescriptorError("j is only meaningful when i > 0")


def betti_disjoint_union(children: list[BettiVector]) -> BettiVector:
    """Componentwise sum of labels; homology is additive over disjoint unions."""
    if not children:
        raise InvalidDescriptorError("disjoint union requires at least one child")
    if len({c.reduced for c in children}) > 1:
        raise InvalidDescriptorError("children mix reduced and unreduced labels")
    betti = tuple(sum(c.betti[k] for c in children) for k in range(4))
    euler = sum(c.euler for c in children)
    return BettiVector.of(betti, euler, children[0].reduced)


def betti_cube_multi_complement(cutouts: list[tuple[int, int, int, int]]) -> BettiVector:
    """Label of a solid 4-cube minus several pairwise disjoint cut-outs.

    Each cut-out with parameters (g, h, i, j) contributes h + i*j tunnels,
    g + i*(j+1) voids, and one enclosed 3-cavity: by Alexander duality these
    swap the cut-out's own b1 = g + i*(j+1) and b2 = h + i*j.  A
    (0, 0, 0, 0) entry is a plain 4-ball cavity.  The homology engine checks
    this formula on every carved 4D catalog kind (see the test suite).
    """
    for cut in cutouts:
        _validate_ghij(*cut)
    b1 = sum(h + i * j for (_, h, i, j) in cutouts)
    b2 = sum(g + i * (j + 1) for (g, _, i, j) in cutouts)
    b3 = len(cutouts)
    betti = (1, b1, b2, b3)
    euler = betti[0] - betti[1] + betti[2] - betti[3]
    return BettiVector.of(betti, euler)


# ---------------------------------------------------------------------------
# embedded-object labels: the catalog's records carry them

def embedded_label(kind: str, ndim: int, genus: int = 0) -> BettiVector:
    """Homotopy-type label of an embedded catalog shape.

    A wedge kind (``circle_wedge``) is a wedge of ``genus`` circles
    thickened into a tube, i.e. a genus-``genus`` handlebody.
    """
    record = KINDS.get(kind)
    if record is None or ndim not in record.betti:
        raise InvalidDescriptorError(
            f"no label for embedded kind {kind!r} in dimension {ndim}"
        )
    b0, b1, b2, b3 = record.betti[ndim]
    if record.wedge:
        if genus < 1:
            raise InvalidDescriptorError(f"{kind} requires genus >= 1")
        b1 += genus
    return BettiVector.of((b0, b1, b2, b3), b0 - b1 + b2 - b3)


def cavity_label(ndim: int, cutouts: list[tuple[int, int, int, int]]) -> BettiVector:
    """Label of a solid n-cube minus disjoint cut-outs, for n in {2, 3, 4}.

    In 4D each cut-out is a boundary-sum manifold with parameters
    (g, h, i, j).  The lower-dimensional analogs reuse g as the handlebody
    genus: a 3D cut-out of genus g contributes g tunnels and one cavity wall;
    a 2D cut-out is a disc hole (g must be 0).
    """
    if ndim == 4:
        return betti_cube_multi_complement(cutouts)
    if ndim == 3:
        for g, h, i, j in cutouts:
            if g < 0 or h or i or j:
                raise InvalidDescriptorError(
                    "3d cut-outs are genus-g handlebodies: g >= 0, h = i = j = 0"
                )
        b1 = sum(g for (g, _, _, _) in cutouts)
        betti = (1, b1, len(cutouts), 0)
    elif ndim == 2:
        for cut in cutouts:
            if any(cut):
                raise InvalidDescriptorError("2d cut-outs are disc holes only")
        betti = (1, len(cutouts), 0, 0)
    else:
        raise InvalidDescriptorError(f"unsupported dimension {ndim}")
    euler = betti[0] - betti[1] + betti[2] - betti[3]
    return BettiVector.of(betti, euler)


# ---------------------------------------------------------------------------
# construction descriptors

@dataclass
class ConstructionDescriptor:
    """Symbolic recipe a sample was built from; labels derive from it.

    ``cutouts`` lists the cut-out parameter tuples for ``cube_complement``
    samples, one entry per cavity and at least one.  ``kind``/``genus``
    identify the shape of an ``embedded_object``.  ``placement`` and
    ``deformation_log`` are free-form provenance records carried through to
    the manifest.
    """

    family: str
    kind: str | None = None
    genus: int = 0
    ndim: int = 0
    cutouts: tuple[tuple[int, int, int, int], ...] = ()
    children: tuple["ConstructionDescriptor", ...] = ()
    placement: tuple[dict[str, Any], ...] = ()
    deformation_log: tuple[dict[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidDescriptorError(f"unknown family {self.family!r}")
        if self.family == "disjoint_union":
            if not self.children:
                raise InvalidDescriptorError("disjoint_union requires children")
        elif self.family == "cube_complement":
            if self.children:
                raise InvalidDescriptorError("cube_complement takes no children")
            if not self.cutouts:
                raise InvalidDescriptorError("cube_complement requires cutouts")
            for cut in self.cutouts:
                if max(cut) > MAX_GLUE_COUNT:
                    raise InvalidDescriptorError(
                        f"glue counts above {MAX_GLUE_COUNT} are not rasterizable: {cut}"
                    )
            cavity_label(self.ndim or 4, list(self.cutouts))  # the rules label() applies
        elif self.family == "embedded_object":
            if self.kind is None:
                raise InvalidDescriptorError("embedded_object requires a kind")

    def label(self) -> BettiVector:
        if self.family == "cube_complement":
            return cavity_label(self.ndim or 4, list(self.cutouts))
        if self.family == "embedded_object":
            return embedded_label(self.kind, self.ndim or 3, self.genus)
        return betti_disjoint_union([c.label() for c in self.children])

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"family": self.family}
        if self.cutouts:
            out["cutouts"] = [list(c) for c in self.cutouts]
        if self.kind is not None:
            out["kind"] = self.kind
        if self.genus:
            out["genus"] = self.genus
        if self.ndim:
            out["ndim"] = self.ndim
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        if self.placement:
            out["placement"] = list(self.placement)
        if self.deformation_log:
            out["deformation_log"] = list(self.deformation_log)
        return out

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ConstructionDescriptor":
        return cls(
            family=d["family"],
            kind=d.get("kind"),
            genus=d.get("genus", 0),
            ndim=d.get("ndim", 0),
            cutouts=tuple(tuple(c) for c in d.get("cutouts", ())),
            children=tuple(cls.from_dict(c) for c in d.get("children", ())),
            placement=tuple(d.get("placement", ())),
            deformation_log=tuple(d.get("deformation_log", ())),
        )
