"""Desk-scale workbench for surface-assisted wireless links.

Simulates multipath channels with Doppler spread, co-phases a reflective
surface, generates labeled (scene image, rate, link status) datasets, trains
a small ternary blockage classifier, and evaluates the two-stage cascade
predictor under four side-information scenarios.
"""

from risblock.channel import (ArrayGeometry, PropagationConfig, RisConfig,
                              SPEED_OF_LIGHT_MPS, channel_bs_ris,
                              channel_bs_ue, channel_ris_ue, co_phase_ris,
                              data_rate, doppler_spread, effective_gain,
                              phase_term, ris_matrix, sinc_pulse,
                              steering_vector)
from risblock.dataset import (FeatureTable, GeneratorConfig, Sample,
                              generate_sample, load_dataset, save_dataset)
from risblock.learn import (MlpParams, Standardization, TrainConfig,
                            backward, class_indices, cross_entropy,
                            fit_standardization, forward, grad_check,
                            init_params, load_model, lr_schedule, save_model,
                            sgd_step, softmax, train)
from risblock.pipeline import (EvalReport, Scenario, ScenarioModel,
                               calibrate_rate_threshold, cascade_predict,
                               evaluate_scenario, run_experiment,
                               train_scenario)
from risblock.scene import (Blocker, LinkStatus, Scene, SceneLayout,
                            generate_trajectory, link_status, los_blocked,
                            random_scene, render_image, synthesize_mpcs)

__version__ = "0.1.0"
