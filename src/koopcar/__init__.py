"""Deep Koopman vehicle-dynamics toolkit.

Trains a lifted-space linear model of planar vehicle dynamics on simulator
data (with an optional physics term tying predictions to measured body-frame
accelerations) and adapts the lifted-space matrices online with sliding-window
least squares. See README for the CLI walkthrough.
"""

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the numeric backend: the kernels are plain numpy and Python floats."""
    return "numpy"


__all__ = ["backend_name", "__version__"]
