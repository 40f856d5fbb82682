"""cprojlab: construction and numerical certification of c-projectively
equivalent Kahler structures on coordinate charts.

The package instantiates explicit local normal forms (quotient compatible
pairs, their Kahler lifts with constant-eigenvalue factors, mobility-two
charts with their canonical vector fields, nilpotent-block normal forms)
as jet-valued fields, and certifies every identity these structures are
supposed to satisfy by dense residual sampling: compatibility equations,
canonical Killing field properties, curvature-operator spectra, and
ODE-level dynamics.
"""

__version__ = "0.1.0"
