"""Exception types shared across the package."""


class GridEnergyError(Exception):
    """Base class for all package errors."""


class InvalidMatrix(GridEnergyError):
    """Matrix input is malformed (non-square, non-finite, wrong size)."""


class NumericalFailure(GridEnergyError):
    """An iterative numerical routine failed to converge."""


class NotPositiveDefinite(GridEnergyError):
    """A solve required a positive definite matrix and did not get one."""


class ParseError(GridEnergyError):
    """Case-file ingestion failed; message carries the offending location."""


class SingularReduction(GridEnergyError):
    """Edge phase at or beyond 90 degrees: the diagonal edge block is not
    invertible, so the Schur-complement blocks are unavailable."""


class PhaseOutOfRange(GridEnergyError):
    """A line phase difference reached 90 degrees where a positive cosine
    was required."""


class UnsupportedTopology(GridEnergyError):
    """The network's bus layout is outside what the operation supports:
    PV buses in the lossy model, no PQ bus, or set-points other than 1
    where the unit set-point model is required."""


class NotConstantRatio(GridEnergyError):
    """Lossy operations need a single conductance/susceptance ratio on
    every line."""


class InfeasibleStart(GridEnergyError):
    """Interior-point solve was given a start outside the convexity domain."""


class NoReactiveSolution(GridEnergyError):
    """The reactive equations have no solution at the given phases (or the
    iteration could not find one)."""


class UnsupportedSign(GridEnergyError):
    """Reduced-model operations require strictly positive reactive
    consumption at every PQ bus."""


class DomainError(GridEnergyError):
    """Requested operating box is empty or otherwise unusable."""
