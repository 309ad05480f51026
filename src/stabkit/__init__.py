"""stabkit: exact-arithmetic toolkit for the numerical side of stability
conditions on surfaces.

Layers:
  - lattice / rank2: extended Neron-Severi lattices, pairings, saturations,
    roots and isotropic classes;
  - charges / gl2: surface and K3 central charges, exact phase comparison,
    slope profiles, heart membership, the Gieseker comparison, and lifted
    GL2+ bookkeeping with exact windings from rational sign tests;
  - hn: Harder-Narasimhan filtrations over finite presentations, read from
    one integer charge table per charge row;
  - support: charge kernels with their 2x2 norm forms and norm Grams, read
    off the charge's dual Gram, minimal root norms, support forms;
  - walls: wall-and-chamber scans on a two-parameter slice with a sampling
    oracle;
  - nef: the divisor-class layer (Omega, Beauville-Bogomolov squares, wall
    reports, Lagrangian candidates);
  - cli: the stabkit command.
"""

from .charges import (ChargeParams, HeartPosition, IntCharge, Order,
                      SlopeProfile, charge_row, gieseker_compare,
                      heart_position, k3_charge, phase_compare, phase_valid,
                      surface_charge)
from .errors import (BudgetError, ChargeError, DegenerateError, LatticeError,
                     PresentationError, StabkitError)
from .gaussian import GaussianRational
from .gl2 import LiftedGL2, gl2_act_on_charge, gl2_compose
from .hn import (CategoryPresentation, ChargeTable, Edge, Filtration,
                 charge_table, hn_filtration, is_semistable, seesaw_check,
                 validate)
from .lattice import (ChernCharacter, MukaiVector, NSLattice,
                      bogomolov_discriminant, mukai_pairing, mukai_square,
                      twist_chern)
from .nef import (Decomposition, ModuliDimension, OmegaClass, WallReport,
                  bb_square, decomposition_scan, lagrangian_candidates,
                  moduli_dimension, omega_class, wall_report)
from .rank2 import (Rank2Lattice, is_hyperbolic, rank2_isotropic, rank2_roots,
                    saturate_rank2)
from .support import (ChargeKernel, build_q_z, charge_kernel,
                      discreteness_classes, equivalent_support_roundtrip,
                      min_root_norm)
from .walls import (Region, SliceParams, WallKind, WallLocus,
                    chambers_along_path, nesting_check, sampling_oracle,
                    scan_walls, wall_locus)

__version__ = "0.1.0"
