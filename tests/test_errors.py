"""errors.stage: the one rule that turns a rejected triple or solution
record inside a deduction stage into a StageFailure."""

from __future__ import annotations

import pytest

from descent_forge.errors import (
    InternalInvariantBroken,
    NotASolution,
    NotATriple,
    NotPrimitive,
    ParityError,
    SplitPreconditionFailed,
    StageFailure,
    stage,
)


@pytest.mark.parametrize("rejection", [NotATriple, NotPrimitive, ParityError, NotASolution])
def test_stage_turns_rejections_into_stage_failures(rejection):
    values = {"u": 2, "v": 1}
    cause = rejection("witness message")
    with pytest.raises(StageFailure) as info:
        with stage("Assemble", values):
            raise cause
    assert info.value.stage == "Assemble"
    assert info.value.values == {"u": 2, "v": 1, "reason": "witness message"}
    assert info.value.__cause__ is cause
    assert values == {"u": 2, "v": 1}


@pytest.mark.parametrize("error", [InternalInvariantBroken, SplitPreconditionFailed])
def test_stage_lets_other_errors_through(error):
    raised = error("a bug, not a failed deduction")
    with pytest.raises(error) as info:
        with stage("Assemble", {"u": 2}):
            raise raised
    assert info.value is raised


def test_stage_is_silent_when_the_block_succeeds():
    with stage("Assemble", {"u": 2}):
        result = 3
    assert result == 3
