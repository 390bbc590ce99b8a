"""phasecraft: phase-space mechanics toolkit.

Subpackages by theme:

* :mod:`phasecraft.algebra` / :mod:`phasecraft.fixtures` -- structure
  constants, matrix bases, group actions.
* :mod:`phasecraft.forms` -- coboundary calculus, cohomology, two-form
  radicals.
* :mod:`phasecraft.brackets` -- Poisson structures and bracket identities.
* :mod:`phasecraft.rigid` -- generalized Euler dynamics on a group.
* :mod:`phasecraft.affine` -- deformable-body models and their lattice form.
* :mod:`phasecraft.ensembles` -- Liouville measure, shell ensembles, entropy.
* :mod:`phasecraft.wigner` -- grid transforms, star product, semiclassics.
* :mod:`phasecraft.checks` -- the acceptance criteria as one registry.
* :mod:`phasecraft.cli` -- the ``phasecraft`` scenario runner.
"""

__version__ = "0.1.0"
