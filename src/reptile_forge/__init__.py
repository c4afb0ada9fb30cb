"""reptile-forge: exact arithmetic for reptile simplices.

Subpackages and modules, each imported by name (importing the package loads
none of them):

- ``algebra``: integer polynomials, Sturm isolation, exact algebraic reals,
  number fields Q[x]/(m) (the golden-ratio field Q(phi) among them), exact
  linear algebra, and a small multivariate symbolic ring
- ``trig``: rational angles, cosine minimal polynomials, degree catalogs
- ``simplex``: simplices, dihedral data, volume, congruence/similarity
- ``fiedler``: dihedral-angle realizability and reconstruction
- ``hill``: Hill simplices, m^d subdivisions, the exact reptile verifier
- ``audit``: the machine-checked nonexistence case analysis
- ``cli``: the reptile-forge command-line tool
"""

__version__ = "0.1.0"
