"""The shape contract of the four matrix models.

Each of StateSpace, InnovationModel, Controller and IdentifiedModel
declares its matrices once, in ``_MATRICES``: validation, the size
attributes and the model file (test_serialize's TestModelRoundTrip)
all read that table.  MESSAGES pins the exception type and full text
of every fault of every declared matrix.
"""

import dataclasses

import numpy as np
import pytest

from redar import (
    Controller,
    DimensionMismatch,
    IdentifiedModel,
    InnovationModel,
    StateSpace,
)

_rng = np.random.default_rng(28)

# valid matrices of distinct sizes: 3 states, 2 inputs, 1 output, and a
# controller with 4 excitation channels
VALID = {
    StateSpace: dict(
        a=0.1 * np.eye(3), b=_rng.standard_normal((3, 2)), c=_rng.standard_normal((1, 3)),
        d=_rng.standard_normal((1, 2)),
    ),
    InnovationModel: dict(
        a=0.1 * np.eye(3), b=_rng.standard_normal((3, 2)), c=_rng.standard_normal((1, 3)),
        k=_rng.standard_normal((3, 1)), psi=np.array([[2.0]]),
    ),
    Controller: dict(
        af=0.1 * np.eye(3), b1f=_rng.standard_normal((3, 1)), b2f=_rng.standard_normal((3, 4)),
        cf=_rng.standard_normal((2, 3)), d1f=_rng.standard_normal((2, 1)),
        d2f=_rng.standard_normal((2, 4)),
    ),
    IdentifiedModel: dict(
        a=0.1 * np.eye(3), b=_rng.standard_normal((3, 2)), c=_rng.standard_normal((1, 3)),
        d=np.zeros((1, 2)), k=_rng.standard_normal((3, 1)),
    ),
}
SIZES = {
    StateSpace: dict(n_states=3, n_inputs=2, n_outputs=1),
    InnovationModel: dict(n_x=3, n_u=2, n_y=1),
    Controller: dict(n_s=3, n_u=2, n_y=1, n_v=4),
    IdentifiedModel: dict(order=3, n_u=2, n_y=1),
}


def faulty(m, fault):
    """``m`` with one fault: a row or column too many, a square matrix
    two columns too wide, a 3-d stack, or a NaN entry."""
    r, c = m.shape
    if fault == "rows":
        return np.ones((r + 1, c))
    if fault == "cols":
        return np.ones((r, c + 1))
    if fault == "square":
        return np.ones((r, r + 2))
    if fault == "3-d":
        return np.ones((2, r, c))
    bad = m.copy()
    bad[0, 0] = np.nan
    return bad


DM = DimensionMismatch
# (model, matrix, fault, error, message); "square" only for the
# matrices declared square, and error None where the model builds
MESSAGES = [
    (StateSpace, "a", "rows", DM, "A must be square, got (4, 3)"),
    (StateSpace, "a", "cols", DM, "A must be square, got (3, 4)"),
    (StateSpace, "a", "square", DM, "A must be square, got (3, 5)"),
    (StateSpace, "a", "3-d", DM, "A must be 2-d, got shape (2, 3, 3)"),
    (StateSpace, "a", "non-finite", ValueError, "A contains non-finite entries"),
    (StateSpace, "b", "rows", DM, "B has 4 rows, expected 3"),
    (StateSpace, "b", "cols", DM, "D has 2 columns, expected 3"),
    (StateSpace, "b", "3-d", DM, "B must be 2-d, got shape (2, 3, 2)"),
    (StateSpace, "b", "non-finite", ValueError, "B contains non-finite entries"),
    (StateSpace, "c", "rows", DM, "D has 1 rows, expected 2"),
    (StateSpace, "c", "cols", DM, "C has 4 columns, expected 3"),
    (StateSpace, "c", "3-d", DM, "C must be 2-d, got shape (2, 1, 3)"),
    (StateSpace, "c", "non-finite", ValueError, "C contains non-finite entries"),
    (StateSpace, "d", "rows", DM, "D has 2 rows, expected 1"),
    (StateSpace, "d", "cols", DM, "D has 3 columns, expected 2"),
    (StateSpace, "d", "3-d", DM, "D must be 2-d, got shape (2, 1, 2)"),
    (StateSpace, "d", "non-finite", ValueError, "D contains non-finite entries"),
    (InnovationModel, "a", "rows", DM, "A must be square, got (4, 3)"),
    (InnovationModel, "a", "cols", DM, "A must be square, got (3, 4)"),
    (InnovationModel, "a", "square", DM, "A must be square, got (3, 5)"),
    (InnovationModel, "a", "3-d", DM, "A must be 2-d, got shape (2, 3, 3)"),
    (InnovationModel, "a", "non-finite", ValueError, "A contains non-finite entries"),
    (InnovationModel, "b", "rows", DM, "B has 4 rows, expected 3"),
    (InnovationModel, "b", "cols", None, None),  # B alone sets n_u
    (InnovationModel, "b", "3-d", DM, "B must be 2-d, got shape (2, 3, 2)"),
    (InnovationModel, "b", "non-finite", ValueError, "B contains non-finite entries"),
    (InnovationModel, "c", "rows", DM, "K has 1 columns, expected 2"),
    (InnovationModel, "c", "cols", DM, "C has 4 columns, expected 3"),
    (InnovationModel, "c", "3-d", DM, "C must be 2-d, got shape (2, 1, 3)"),
    (InnovationModel, "c", "non-finite", ValueError, "C contains non-finite entries"),
    (InnovationModel, "k", "rows", DM, "K has 4 rows, expected 3"),
    (InnovationModel, "k", "cols", DM, "K has 2 columns, expected 1"),
    (InnovationModel, "k", "3-d", DM, "K must be 2-d, got shape (2, 3, 1)"),
    (InnovationModel, "k", "non-finite", ValueError, "K contains non-finite entries"),
    (InnovationModel, "psi", "rows", DM, "Psi has 2 rows, expected 1"),
    (InnovationModel, "psi", "cols", DM, "Psi has 2 columns, expected 1"),
    (InnovationModel, "psi", "square", DM, "Psi has 3 columns, expected 1"),
    (InnovationModel, "psi", "3-d", DM, "Psi must be 2-d, got shape (2, 1, 1)"),
    (InnovationModel, "psi", "non-finite", ValueError, "Psi contains non-finite entries"),
    (Controller, "af", "rows", DM, "AF must be square, got (4, 3)"),
    (Controller, "af", "cols", DM, "AF must be square, got (3, 4)"),
    (Controller, "af", "square", DM, "AF must be square, got (3, 5)"),
    (Controller, "af", "3-d", DM, "AF must be 2-d, got shape (2, 3, 3)"),
    (Controller, "af", "non-finite", ValueError, "AF contains non-finite entries"),
    (Controller, "b1f", "rows", DM, "B1F has 4 rows, expected 3"),
    (Controller, "b1f", "cols", DM, "D1F has 1 columns, expected 2"),
    (Controller, "b1f", "3-d", DM, "B1F must be 2-d, got shape (2, 3, 1)"),
    (Controller, "b1f", "non-finite", ValueError, "B1F contains non-finite entries"),
    (Controller, "b2f", "rows", DM, "B2F has 4 rows, expected 3"),
    (Controller, "b2f", "cols", DM, "D2F has 4 columns, expected 5"),
    (Controller, "b2f", "3-d", DM, "B2F must be 2-d, got shape (2, 3, 4)"),
    (Controller, "b2f", "non-finite", ValueError, "B2F contains non-finite entries"),
    (Controller, "cf", "rows", DM, "D1F has 2 rows, expected 3"),
    (Controller, "cf", "cols", DM, "CF has 4 columns, expected 3"),
    (Controller, "cf", "3-d", DM, "CF must be 2-d, got shape (2, 2, 3)"),
    (Controller, "cf", "non-finite", ValueError, "CF contains non-finite entries"),
    (Controller, "d1f", "rows", DM, "D1F has 3 rows, expected 2"),
    (Controller, "d1f", "cols", DM, "D1F has 2 columns, expected 1"),
    (Controller, "d1f", "3-d", DM, "D1F must be 2-d, got shape (2, 2, 1)"),
    (Controller, "d1f", "non-finite", ValueError, "D1F contains non-finite entries"),
    (Controller, "d2f", "rows", DM, "D2F has 3 rows, expected 2"),
    (Controller, "d2f", "cols", DM, "D2F has 5 columns, expected 4"),
    (Controller, "d2f", "3-d", DM, "D2F must be 2-d, got shape (2, 2, 4)"),
    (Controller, "d2f", "non-finite", ValueError, "D2F contains non-finite entries"),
    (IdentifiedModel, "a", "rows", DM, "Ahat must be square, got (4, 3)"),
    (IdentifiedModel, "a", "cols", DM, "Ahat must be square, got (3, 4)"),
    (IdentifiedModel, "a", "square", DM, "Ahat must be square, got (3, 5)"),
    (IdentifiedModel, "a", "3-d", DM, "Ahat must be 2-d, got shape (2, 3, 3)"),
    (IdentifiedModel, "a", "non-finite", ValueError, "Ahat contains non-finite entries"),
    (IdentifiedModel, "b", "rows", DM, "Bhat has 4 rows, expected 3"),
    (IdentifiedModel, "b", "cols", DM, "Dhat has 2 columns, expected 3"),
    (IdentifiedModel, "b", "3-d", DM, "Bhat must be 2-d, got shape (2, 3, 2)"),
    (IdentifiedModel, "b", "non-finite", ValueError, "Bhat contains non-finite entries"),
    (IdentifiedModel, "c", "cols", DM, "Chat has 4 columns, expected 3"),
    (IdentifiedModel, "c", "3-d", DM, "Chat must be 2-d, got shape (2, 1, 3)"),
    (IdentifiedModel, "c", "non-finite", ValueError, "Chat contains non-finite entries"),
    (IdentifiedModel, "d", "rows", DM, "Dhat has 2 rows, expected 1"),
    (IdentifiedModel, "d", "cols", DM, "Dhat has 3 columns, expected 2"),
    (IdentifiedModel, "d", "3-d", DM, "Dhat must be 2-d, got shape (2, 1, 2)"),
    (IdentifiedModel, "d", "non-finite", ValueError, "Dhat contains non-finite entries"),
    (IdentifiedModel, "k", "rows", DM, "Khat has 4 rows, expected 3"),
    (IdentifiedModel, "k", "cols", DM, "Khat has 2 columns, expected 1"),
    (IdentifiedModel, "k", "3-d", DM, "Khat must be 2-d, got shape (2, 3, 1)"),
    (IdentifiedModel, "k", "non-finite", ValueError, "Khat contains non-finite entries"),
]


@pytest.mark.parametrize(
    "cls, name, fault, error, message",
    MESSAGES,
    ids=[f"{cls.__name__}-{name}-{fault}" for cls, name, fault, *_ in MESSAGES],
)
def test_each_fault_raises_its_message(cls, name, fault, error, message):
    matrices = {**VALID[cls], name: faulty(VALID[cls][name], fault)}
    if error is None:
        cls(**matrices)
        return
    with pytest.raises(Exception) as exc:
        cls(**matrices)
    assert type(exc.value) is error
    assert str(exc.value) == message


# Dhat is checked before Khat, in file order, so where both disagree with
# the sizes the message names Dhat: a Chat with a row too many sets n_y = 2
# for both.
DHAT_FIRST = [(IdentifiedModel, "c", "rows", DM, "Dhat has 1 rows, expected 2")]


def test_table_covers_every_declared_matrix_and_fault():
    for cls, matrices in VALID.items():
        assert tuple(matrices) == tuple(name for name, *_ in cls._MATRICES)
        for name, _, rows, cols in cls._MATRICES:
            faults = {f for c, n, f, *_ in MESSAGES + DHAT_FIRST if c is cls and n == name}
            square = {"square"} if rows == cols else set()
            assert faults == {"rows", "cols", "3-d", "non-finite"} | square, (cls, name)


def test_identified_model_names_dhat_before_khat():
    matrices = {**VALID[IdentifiedModel], "d": np.zeros((1, 5)), "k": np.ones((3, 4))}
    with pytest.raises(DimensionMismatch, match=r"^Dhat has 5 columns, expected 2$"):
        IdentifiedModel(**matrices)
    ((cls, name, fault, error, message),) = DHAT_FIRST
    with pytest.raises(error) as exc:
        cls(**{**VALID[cls], name: faulty(VALID[cls][name], fault)})
    assert str(exc.value) == message


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_sizes_are_read_off_the_matrices(cls):
    model = cls(**VALID[cls])
    assert {size: getattr(model, size) for size in SIZES[cls]} == SIZES[cls]
    for size in SIZES[cls]:
        with pytest.raises(TypeError):
            cls(**VALID[cls], **{size: 3})


def test_replace_recomputes_sizes():
    ss = StateSpace(**VALID[StateSpace])
    bigger = dataclasses.replace(ss, a=0.1 * np.eye(5), b=np.ones((5, 2)), c=np.ones((1, 5)))
    assert (bigger.n_states, bigger.n_inputs, bigger.n_outputs) == (5, 2, 1)
    wider = dataclasses.replace(ss, b=np.ones((3, 4)), d=np.ones((1, 4)))
    assert (wider.n_states, wider.n_inputs, wider.n_outputs) == (3, 4, 1)
    with pytest.raises(DimensionMismatch, match="^B has 3 rows, expected 5$"):
        dataclasses.replace(ss, a=0.1 * np.eye(5))

