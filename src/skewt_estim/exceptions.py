"""Exception types raised across the package."""


class EstimationError(Exception):
    """Base class for errors raised by this package.

    A stacked call, on a lockstep stack of rows, does not raise a row's
    error: it returns it as data, beside its outputs, in a dict of the
    failed rows and their errors, and a lockstep loop records each as its
    row's outcome and goes on with the other rows.  So a failed row is
    named once, by its key in those outcomes.  A one-row call raises its
    row's error unchanged: rec_trunc, stf_update, linearize (the error of
    its lowest failing state), and the sequence functions (stf_run,
    sts_run, kf_gated_run, forward_pass, backward_pass and the
    benchmark's run_estimator), which are one-row calls of lockstep
    families.

    `step` is the time step the error arose at, when known; the loop over
    the steps sets it on the error, and str() then ends in
    "(time step k)".  So a row's error reads the same at any position of
    its batch.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step

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

    def __init__(self, message, smallest_eigenvalue=None, step=None):
        if smallest_eigenvalue is not None:
            message = f"{message}; smallest eigenvalue {smallest_eigenvalue:.3e}"
        super().__init__(message, step)
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
