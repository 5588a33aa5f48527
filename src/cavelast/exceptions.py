"""Error taxonomy shared across the package."""


class CavelastError(Exception):
    """Base class for package errors."""


class ConfigurationError(CavelastError):
    """Scenario or parameter input that cannot be run (maps to exit code 2)."""


class GeometryError(CavelastError):
    """Mesh construction, point location, or sampling failure."""


class ArtifactError(CavelastError):
    """Artifact text (mesh, positions, cavities, raster) that cannot be read back."""


class DomainError(CavelastError, ValueError):
    """Value outside a function's mathematical domain (det <= 0, zero normal, ...)."""


class InfeasibleEnergyError(DomainError):
    """Energy evaluation hit a non-positive element determinant.

    Carries the offending triangle index as `.triangle`.
    """

    def __init__(self, message, triangle=None):
        super().__init__(message)
        self.triangle = triangle
