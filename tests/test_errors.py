"""Typed errors: every algorithm failure can name the row it failed on."""

import pytest

from ldrlle import (
    DegenerateWeightsError,
    DisconnectedGraphError,
    EigenSolverError,
    GeneralPositionError,
    LdrLleError,
    SingularNeighborhoodError,
)

ERRORS = [LdrLleError, DegenerateWeightsError, DisconnectedGraphError, EigenSolverError,
          GeneralPositionError, SingularNeighborhoodError]


@pytest.mark.parametrize("kind", ERRORS)
def test_every_algorithm_error_has_a_point_index(kind):
    assert issubclass(kind, LdrLleError)
    assert kind("x").point_index is None
    assert str(kind("x")) == "x"


def test_point_index_and_the_fields_land_where_they_are_given():
    assert DegenerateWeightsError("m", point_index=3).point_index == 3
    assert LdrLleError("m", point_index=4).point_index == 4
    singular = SingularNeighborhoodError("m", 1e-13, 5)
    assert (singular.rcond, singular.point_index) == (1e-13, 5)
    general = GeneralPositionError("m", 0.5, 6)
    assert (general.alpha, general.point_index) == (0.5, 6)
    assert GeneralPositionError("m", alpha=0.25).point_index is None
    assert SingularNeighborhoodError("m", point_index=7).rcond is None
    assert DisconnectedGraphError("m", n_components=2).n_components == 2
