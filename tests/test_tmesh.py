import json
from fractions import Fraction

import pytest

from corpus import CYCLE_CELLS, NON_REGULAR_CELLS
from gentess import (
    TMesh,
    TwoExponentials,
    ValidationError,
    document_to_json,
    load_document,
    load_mesh,
    mesh_stats,
    refine,
    tensor_mesh,
)
from gentess.tmesh import BOUNDARY, CROSSING, T_JUNCTION, MeshDocument, to_fraction


def test_tensor_grid_structure(meshes):
    mesh = meshes["tensor_2x2"]
    assert len(mesh.cells) == 4
    assert len(mesh.vertices) == 9
    assert len(mesh.t_junctions) == 0
    assert mesh.regular and not mesh.has_cycles
    tags = mesh.vertex_tags
    assert tags[(Fraction(1), Fraction(1))] == CROSSING
    assert tags[(Fraction(0), Fraction(0))] == BOUNDARY
    # every edge segment is maximal: crossings split the lines
    assert len(mesh.composite_edges) == 12
    st = mesh_stats(mesh)
    assert (st.non_t_vertices, st.hor_edges, st.ver_edges, st.cells) == (9, 6, 6, 4)
    assert st.max_chain_length == 0


def test_single_cell_structure(meshes):
    mesh = meshes["single_cell"]
    st = mesh_stats(mesh)
    assert (st.non_t_vertices, st.hor_edges, st.ver_edges, st.cells) == (4, 2, 2, 1)
    assert len(mesh.composite_edges) == 4


def test_t_junction_classification(meshes):
    mesh = meshes["single_t"]
    tags = mesh.vertex_tags
    assert tags[(Fraction(1), Fraction(1))] == T_JUNCTION
    assert tags[(Fraction(1), Fraction(2))] == BOUNDARY
    assert sum(1 for t in tags.values() if t == T_JUNCTION) == 1


def test_t_junction_fuses_composite_edge(meshes):
    mesh = meshes["single_t"]
    # the line y=1 stays one composite edge across the hanging vertex
    spans = [(e.lo, e.hi) for e in mesh.composite_edges
             if e.axis == 0 and e.coord == 1]
    assert spans == [(Fraction(0), Fraction(2))]
    edge = next(e for e in mesh.composite_edges if e.axis == 0 and e.coord == 1)
    assert len(edge.segments) == 2
    assert edge.interior_vertices == ((Fraction(1), Fraction(1)),)


def test_every_t_junction_has_one_host_edge(meshes):
    for name, mesh in meshes.items():
        for w in mesh.t_junctions:
            assert w in mesh.host_edge, (name, w)
            edge = mesh.composite_edges[mesh.host_edge[w]]
            assert w in edge.interior_vertices
            others = [e for e in mesh.composite_edges
                      if e.index != edge.index and w in e.interior_vertices]
            assert not others, (name, w)


def test_segment_counts_sum_to_total(meshes):
    for name, mesh in meshes.items():
        total = sum(len(e.segments) for e in mesh.composite_edges)
        assert total == len(mesh.edge_segments), name


def test_pinwheel_has_cycle():
    mesh = TMesh(CYCLE_CELLS)
    has, witness = mesh.has_cycles, mesh.cycle_witness
    assert has
    assert len(witness) == 4
    assert set(witness) <= set(mesh.t_junctions)
    with pytest.raises(ValidationError):
        mesh_stats(mesh)


def test_acyclic_staircase():
    mesh = TMesh([(0, 4, 0, 2), (0, 2, 2, 4), (2, 4, 2, 3), (2, 3, 3, 4),
                  (3, 4, 3, 4)])
    has, witness = mesh.has_cycles, mesh.cycle_witness
    assert not has and witness is None


def test_non_regular_mesh_flagged():
    mesh = TMesh(NON_REGULAR_CELLS)
    assert not mesh.regular
    with pytest.raises(ValidationError):
        mesh_stats(mesh)


def test_hole_domain_accepted(meshes):
    mesh = meshes["hole"]
    assert mesh.regular and not mesh.has_cycles
    st = mesh_stats(mesh)
    assert st.cells == 8
    assert st.t_junctions == 0
    assert st.non_t_vertices == 16


def test_chained_t_stats(meshes):
    # hanging edges: x=3 above leans on y=3, which leans on x=2, which leans
    # on y=2, so the longest chain has three links
    st = mesh_stats(meshes["chained_t"])
    assert st.t_junctions == 3
    assert st.max_chain_length == 3


def test_double_t_edge_ratio(meshes):
    mesh = meshes["double_t"]
    edge = next(e for e in mesh.composite_edges if len(e.segments) == 3)
    assert edge.interior_vertices == ((Fraction(1), Fraction(1)),
                                      (Fraction(2), Fraction(1)))
    st = mesh_stats(mesh)
    assert st.max_edge_segment_ratio == pytest.approx(3.0)


def test_validation_overlap():
    with pytest.raises(ValidationError, match="overlap"):
        TMesh([(0, 2, 0, 2), (1, 3, 1, 3)])


def test_validation_zero_area():
    with pytest.raises(ValidationError, match="empty or inverted"):
        TMesh([(0, 1, 0, 0)])


def test_validation_disconnected():
    with pytest.raises(ValidationError, match="disconnected"):
        TMesh([(0, 1, 0, 1), (2, 3, 0, 1)])


def test_point_touching_cells_are_connected():
    TMesh(NON_REGULAR_CELLS)  # connected through the shared corner


def test_exact_rational_coordinates():
    mesh = TMesh([["0", "0.1", "0", "1"], ["0.1", "1", "0", "1"]])
    assert mesh.cells[0].x1 == Fraction(1, 10)
    # the shared line is found exactly despite the non-representable decimal
    assert len(mesh.vertices) == 6


@pytest.mark.parametrize("text", ["1e1000000", "1e-1000000", "1e10000000",
                                  "1E+1_000_000", "0.5e" + "9" * 5000])
def test_huge_decimal_exponent_rejected_at_once(text):
    # building 10**exponent first took 0.3 s for seven digits, 12 s for eight
    import time

    start = time.perf_counter()
    with pytest.raises(ValidationError):
        to_fraction(text)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("text, value", [("1e-400", Fraction(1, 10 ** 400)),
                                         ("2.5E+3", Fraction(2500)),
                                         ("0.001e300", Fraction(10 ** 297))])
def test_exponents_within_reach_of_the_double_range_stay_exact(text, value):
    assert to_fraction(text) == value


def test_document_round_trip(tmp_path):
    doc = MeshDocument(
        mesh=TMesh([("0", "1/2", "0", "1"), ("1/2", "1", "0", "1")]),
        section_s=(TwoExponentials(1, -1), 4),
        section_t=(TwoExponentials(2, 3), 5),
        smoothness=(1, 1),
    )
    data = document_to_json(doc)
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(data))
    loaded = load_document(path)
    assert document_to_json(loaded) == data
    assert loaded.section_s[0] == TwoExponentials(1, -1)
    assert loaded.smoothness == (1, 1)
    assert load_mesh(str(path)).to_cells_json() == doc.mesh.to_cells_json()


def test_document_validation():
    with pytest.raises(ValidationError):
        load_document({"cells": [[0, 1, 0, 1]], "sections": {"s": {"n": 4}}})
    with pytest.raises(ValidationError):
        load_document({"no_cells": []})
    with pytest.raises(ValidationError):
        load_document("/nonexistent/path.json")
    with pytest.raises(ValidationError):
        load_document('{"cells": [[0, 1, 0, 1]], "smoothness": [1]}')


def test_refine_preserves_structure(meshes):
    fine = refine(meshes["single_t"])
    assert len(fine.cells) == 12
    assert fine.regular and not fine.has_cycles
    # refinement of a tensor mesh is the doubled tensor mesh
    fine2 = refine(meshes["tensor_2x2"])
    assert len(fine2.cells) == 16
    assert len(fine2.t_junctions) == 0


def test_tensor_mesh_requires_breakpoints():
    with pytest.raises(ValidationError):
        tensor_mesh([0], [0, 1])
