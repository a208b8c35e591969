"""Energy-function treatment of lossless AC power flow.

Evaluate the energy function and its derivatives, certify membership in
its convexity domain, solve the power-flow equations by convex
minimization over that domain (or certify that no solution exists there),
and run the reduced-energy and constant-ratio lossy extensions.
"""

__version__ = "0.1.0"

from .convexity import (ConvexityCertificate, PhaseVoltageBox, convexity_matrix,
                        in_domain_C, in_domain_D_sampled, lossy_in_domain,
                        matrix_convexity_gap, max_phase_bound)
from .errors import (DomainError, GridEnergyError, InfeasibleStart,
                     InvalidMatrix, NoReactiveSolution, NotConstantRatio,
                     NotPositiveDefinite, NumericalFailure, ParseError,
                     PhaseOutOfRange, SingularReduction, UnsupportedSign,
                     UnsupportedTopology)
from .energy import (EnergyEval, HessianBlocks, PFState, energy_gradient,
                     energy_value, hessian, hessian_blocks, lossy_targets,
                     pf_residuals)
from .linalg import SymMatrix, cholesky_psd, solve_spd, sym_eigen
from .network import (Bus, BusKind, Line, Network, absorb_setpoints,
                      incidence, is_tree, load_case, losslessify,
                      parse_matpower, parse_native, scale_injections,
                      serialize_native)
from .reduced import (BetaCondition, ReducedState, VoltageBound,
                      beta_condition, convex_reactive_solve, reduced_energy,
                      region_agreement, region_grid, solve_reactive_newton,
                      voltage_upper_bound)
from .solver import (SolveOptions, SolveOutcome, SolveStatus, SweepRecord,
                     solve_convex, solve_convex_lossy, solve_newton, sweep_load)
