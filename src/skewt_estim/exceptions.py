"""Exception types raised across the package."""


class EstimationError(Exception):
    """Base class for errors raised by this package.

    `step` is the time step the error arose at and `row` its row of a
    lockstep stack, when known.  The layer that knows one sets it on the
    caught error.  A lockstep loop that catches an error of a row records
    it as that row's outcome and goes on with the other rows.  The
    sequence functions (stf_run, sts_run, kf_gated_run and the benchmark's
    run_estimator) are one-row calls of lockstep families and raise their
    row's error again, naming row 0.  str() ends in "(time step k)" once
    the step is known; the row never shows, so a row's error reads the
    same at any position of its batch.
    """

    def __init__(self, message, step=None, row=None):
        super().__init__(message)
        self.step = step
        self.row = row

    def __str__(self):
        text = super().__str__()
        return text if self.step is None else f"{text} (time step {self.step})"


class DegenerateDirectionError(EstimationError):
    """A truncation direction has (numerically) zero variance.

    Usually indicates an ill-conditioned or misspecified model upstream;
    the caller should not silently clamp and continue.
    """


class NumericalFailureError(EstimationError):
    """A numerical step failed: a matrix that must be positive definite is
    not, even after jitter escalation, or an input is not finite."""

    def __init__(self, message, smallest_eigenvalue=None, step=None, row=None):
        if smallest_eigenvalue is not None:
            message = f"{message}; smallest eigenvalue {smallest_eigenvalue:.3e}"
        super().__init__(message, step, row)
        self.smallest_eigenvalue = smallest_eigenvalue


class OracleInfeasibleError(EstimationError):
    """The sampling oracle cannot draw exact samples: the covariance is
    not positive definite, or the minimax tilt equations were not solved."""


class DegeneracyError(EstimationError):
    """All particle weights underflowed to zero."""


class GeometryError(EstimationError):
    """Satellite geometry could not be constructed or is degenerate."""


class ConfigError(EstimationError):
    """A benchmark configuration file or value is invalid."""
