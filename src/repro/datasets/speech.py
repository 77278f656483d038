"""TIMIT-like synthetic speech corpus with dialect structure.

The paper's speech benchmark (§2.1, Figure 10) uses the TIMIT corpus: 630
speakers across eight English dialect regions, with per-speaker feedback
used to personalise model selection.  The synthetic stand-in generates
MFCC-like frame sequences whose class-conditional distributions are
*dialect-dependent*: a model trained on dialect ``d`` is accurate for
speakers of ``d`` and noticeably worse for other dialects, which is the
property the personalization experiment needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: TIMIT has eight dialect regions and 39 collapsed phoneme classes.
N_DIALECTS = 8
N_PHONEME_CLASSES = 39
#: Number of transcription classes (word-level labels) in the stand-in task.
N_WORD_CLASSES = 10
#: MFCC-like feature dimensionality per frame.
N_MFCC = 13


@dataclass
class DialectUtterance:
    """One synthetic utterance: a frame sequence plus its labels."""

    frames: np.ndarray  # (T, N_MFCC)
    label: int  # word/transcription class
    dialect: int
    speaker_id: int


@dataclass
class TimitLikeCorpus:
    """The generated corpus split by speaker into train and test sets."""

    train: List[DialectUtterance] = field(default_factory=list)
    test: List[DialectUtterance] = field(default_factory=list)
    n_dialects: int = N_DIALECTS
    n_classes: int = N_WORD_CLASSES
    n_features: int = N_MFCC

    def utterances_for_dialect(
        self, dialect: int, split: str = "train"
    ) -> List[DialectUtterance]:
        """All utterances of one dialect from the given split."""
        source = self.train if split == "train" else self.test
        return [u for u in source if u.dialect == dialect]

    def test_speakers(self) -> List[int]:
        """Unique speaker ids present in the test split."""
        return sorted({u.speaker_id for u in self.test})

    def utterances_for_speaker(self, speaker_id: int) -> List[DialectUtterance]:
        """Test utterances for one speaker (used to simulate a user session)."""
        return [u for u in self.test if u.speaker_id == speaker_id]


def load_timit_like(
    n_speakers: int = 64,
    utterances_per_speaker: int = 12,
    min_frames: int = 20,
    max_frames: int = 40,
    dialect_shift: float = 2.0,
    random_state: Optional[int] = 7,
) -> TimitLikeCorpus:
    """Generate the TIMIT-like corpus.

    Parameters
    ----------
    n_speakers:
        Number of synthetic speakers, distributed round-robin over the eight
        dialects; 20% of speakers per dialect are held out as the test set.
    utterances_per_speaker:
        Utterances generated for each speaker.
    dialect_shift:
        Magnitude of the dialect-specific offset applied to class centroids.
        Larger values make cross-dialect models worse, amplifying the benefit
        of personalization.
    """
    if n_speakers < N_DIALECTS * 2:
        raise ValueError(f"n_speakers must be at least {N_DIALECTS * 2}")
    if max_frames < min_frames:
        raise ValueError("max_frames must be >= min_frames")

    rng = np.random.default_rng(random_state)

    # Class centroids shared across dialects.  Each dialect then perturbs each
    # class centroid independently (dialects "pronounce" each word
    # differently), which is what makes a dialect-oblivious model genuinely
    # worse than per-dialect models — the property Figure 10 depends on.
    base_centroids = rng.normal(0.0, 1.0, size=(N_WORD_CLASSES, N_MFCC))
    dialect_class_offsets = rng.normal(
        0.0, 0.45 * dialect_shift, size=(N_DIALECTS, N_WORD_CLASSES, N_MFCC)
    )

    corpus = TimitLikeCorpus()
    speakers_per_dialect = n_speakers // N_DIALECTS
    speaker_id = 0
    for dialect in range(N_DIALECTS):
        n_test_speakers = max(1, speakers_per_dialect // 5)
        for local_idx in range(speakers_per_dialect):
            is_test = local_idx < n_test_speakers
            speaker_offset = rng.normal(0.0, 0.35, size=N_MFCC)
            for _ in range(utterances_per_speaker):
                label = int(rng.integers(0, N_WORD_CLASSES))
                T = int(rng.integers(min_frames, max_frames + 1))
                centroid = (
                    base_centroids[label]
                    + dialect_class_offsets[dialect, label]
                    + speaker_offset
                )
                # A per-utterance offset gives irreducible variability that
                # frame averaging cannot remove, keeping error rates realistic.
                utterance_offset = rng.normal(0.0, 0.7, size=N_MFCC)
                # Frames follow a slow random walk around the centroid, like
                # the temporal correlation of real MFCC streams.
                noise = rng.normal(0.0, 1.0, size=(T, N_MFCC))
                walk = np.cumsum(rng.normal(0.0, 0.15, size=(T, N_MFCC)), axis=0)
                frames = centroid[None, :] + utterance_offset[None, :] + noise + walk
                utterance = DialectUtterance(
                    frames=frames.astype(np.float64),
                    label=label,
                    dialect=dialect,
                    speaker_id=speaker_id,
                )
                if is_test:
                    corpus.test.append(utterance)
                else:
                    corpus.train.append(utterance)
            speaker_id += 1
    return corpus


def utterances_to_fixed_features(
    utterances: Sequence[DialectUtterance],
) -> Tuple[np.ndarray, np.ndarray]:
    """Summarise variable-length utterances into fixed-length feature vectors.

    Concatenates per-dimension mean, standard deviation and deltas so that
    fixed-input classifiers (linear models, MLPs) can also be trained on the
    speech task.
    """
    if not utterances:
        raise ValueError("utterances must be non-empty")
    features = []
    labels = []
    for utterance in utterances:
        frames = utterance.frames
        deltas = np.diff(frames, axis=0) if frames.shape[0] > 1 else np.zeros_like(frames)
        features.append(
            np.concatenate(
                [
                    frames.mean(axis=0),
                    frames.std(axis=0),
                    deltas.mean(axis=0),
                    deltas.std(axis=0),
                ]
            )
        )
        labels.append(utterance.label)
    return np.asarray(features), np.asarray(labels)
