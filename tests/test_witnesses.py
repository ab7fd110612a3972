"""Witness values, rational strings, and the JSON document round-trip."""

from fractions import Fraction

import pytest

from catspire.engine import EngineParams
from catspire.graphs import VertexSet
from catspire.mass import CardinalityMass
from catspire.witnesses import (
    AnticompletePair,
    HighMassNeighbourhood,
    HighMassVertex,
    InducedCopy,
    Stuck,
    format_rational,
    parse_rational,
    variant_tag,
    witness_document,
    witness_from_document,
)
from helpers import path_graph


def test_variant_tags():
    assert variant_tag(HighMassVertex(0)) == "high-mass-vertex"
    assert variant_tag(HighMassNeighbourhood(1)) == "high-mass-neighbourhood"
    assert variant_tag(AnticompletePair(VertexSet([0]), VertexSet([2]))) == "anticomplete-pair"
    assert variant_tag(InducedCopy((0, 1))) == "induced-copy"
    assert variant_tag(Stuck("x")) == "stuck"


def test_format_rational():
    assert format_rational(Fraction(3, 20)) == "3/20"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(4, 2)) == "2"


def test_parse_rational():
    assert parse_rational(" 3/20 ") == Fraction(3, 20)
    assert parse_rational("7") == Fraction(7)
    for bad in ("0.5", "3e2", "1E5", "1/0", "x"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_rationals_past_the_int_string_limit():
    # 5001 and 6001 digits, above the default limit of 4300 for str(int)
    big, bigger = 10**5000 + 1, 10**6000 + 3
    for q, text in (
        (Fraction(-big), "-1" + "0" * 4999 + "1"),
        (Fraction(3, big), "3/1" + "0" * 4999 + "1"),
        (Fraction(bigger, big), "1" + "0" * 5999 + "3/1" + "0" * 4999 + "1"),
    ):
        assert format_rational(q) == text
        assert parse_rational(text) == q
    with pytest.raises(ValueError, match="bad rational"):
        parse_rational("1/" + "0" * 5000)


def test_stuck_diagnostics_sorted():
    s = Stuck.make("blocked", {"b": 2, "a": 1})
    assert s.diagnostics == (("a", 1), ("b", 2))
    assert s.diag_dict() == {"a": 1, "b": 2}


def test_witness_documents_round_trip():
    g = path_graph(4)
    m = CardinalityMass(4)
    params = EngineParams(3, Fraction(1, 4), 2)
    cases = [
        HighMassVertex(2),
        HighMassNeighbourhood(1),
        AnticompletePair(VertexSet([0]), VertexSet([2, 3])),
        InducedCopy((0, 1, 2)),
        Stuck.make("kappa-schedule-infeasible", {"p": "2"}),
    ]
    for w in cases:
        doc = witness_document(g, m, w, params, "pass")
        assert doc["variant"] == variant_tag(w)
        assert doc["parameters"] == {
            "tau": 3,
            "epsilon": "1/4",
            "p": 2,
            "guarantee": False,
        }
        assert witness_from_document(doc) == w


def test_witness_document_masses():
    g = path_graph(4)
    m = CardinalityMass(4)
    params = EngineParams(3, Fraction(1, 4), 2)
    doc = witness_document(g, m, HighMassVertex(2), params, "pass")
    assert doc["masses"] == {"vertex": "1/4"}
    doc = witness_document(g, m, HighMassNeighbourhood(1), params, "pass")
    assert doc["masses"] == {"neighbourhood": "1/2"}
    doc = witness_document(
        g, m, AnticompletePair(VertexSet([0]), VertexSet([2, 3])), params, "pass"
    )
    assert doc["a"] == [0] and doc["b"] == [2, 3]
    assert doc["masses"] == {"a": "1/4", "b": "1/2"}
    trace = [{"stage": "axiom-1", "vertex": "2"}]
    doc = witness_document(g, m, HighMassVertex(2), params, "pass", trace=trace)
    assert doc["trace"] == trace


def test_witness_from_document_rejects_unknown():
    with pytest.raises(ValueError, match="unknown witness variant"):
        witness_from_document({"variant": "mystery"})
