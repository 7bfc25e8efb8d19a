"""qadv: desk-scale workbench for low-weight Pauli propagation, advantage
detection, dequantized sampling, noisy sensing, and Bell games."""

from . import bell, circuits, detection, pauli, propagation, sensing, sq, statevector
from .circuits import Circuit, Gate, amplify, build_cnew, random_brickwork
from .detection import DetectionReport, decay_experiment, detect, instance_suite
from .manifest import ARTIFACT_VERSION as __version__
from .pauli import PauliMap, transfer_matrix
from .propagation import PropagationConfig, backpropagate
from .sensing import ghz_trials, kl_sample_bound, separable_fractions
from .sq import SQVector, inner_product_estimate
from .statevector import StateVector, apply_circuit, expectation, output_prob, prepare_basis
