"""Multi-scene video generation from a one-line theme.

Three stages: a chat model drafts a scene-by-scene script, reference
images pin down recurring entities, and a latent diffusion loop turns
each scene row into a short clip with text, foreground, background,
scene and action conditioning plus a mid-sampling camera intervention.
Everything runs deterministically on CPU; the heavyweight perceptual
models are replaced by small frozen stand-ins so every contract stays
checkable end to end.
"""

from .errors import (BackendError, BadConfig, BadRange, BadTensorFile,
                     ChecksumMismatch, DetectorMiss, DivisionAtTZero,
                     EmptyScript, MalformedScene, NoCommonEntities,
                     ScriptGenerationExhausted, ShapeMismatch, StageError,
                     TooFewFrames, UnknownCameraToken, UnknownDirection,
                     UnknownSpeed, ValidationError, VideoStudioError)
from .numeric_core import (Parameter, Rng, Tensor, derive_seed,
                           finite_diff_check, hash64, load_tensor, save_tensor)
from .script_engine import (CameraMove, EntityRecord, MockChatBackend,
                            RetryPolicy, SceneSpec, VideoScript,
                            find_common_entities, generate_entity_description,
                            generate_script, parse_script, serialize_script,
                            validate_script)
from .ref_images import (EntityReference, Mask, RgbImage, ToyTextToImageBackend,
                         build_entity_references)
from .camera_motion import (DEFAULT_SPEED_TABLE, DIRECTIONS, SPEEDS,
                            SpeedTable, synthesize_flow, warp_clip, warp_frame)
from .sampler import (NoiseSchedule, SamplerConfig, apply_camera_intervention,
                      cfg_epsilon, ddim_step, make_schedule,
                      respaced_timesteps, sample_image, sample_video)
from .action_condition import (ActionVocabulary, VocabularyEmbedder,
                               build_indicator, default_vocabulary,
                               extract_action_phrases, load_vocabulary)
from .cond_blocks import (AdamW, AnalyticGaussianDenoiser, ContextBundle,
                          GaussianPrior, ImgDenoiser, ToyFeatureExtractor,
                          TriContextBlock, SpatioTemporalBlock, VidContext,
                          VidDenoiser, load_weights, save_weights, train_step)
from .pipeline import (MetricsReport, MultiSceneVideo, PipelineConfig,
                       SceneOutput, compute_metrics, default_config,
                       export_video, load_config, load_video, run_pipeline,
                       tm_sweep)

__version__ = "0.1.0"
