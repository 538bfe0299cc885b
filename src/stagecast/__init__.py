"""stagecast: neural river-stage surrogates trained against a shallow-water solver."""

__version__ = "0.1.0"
