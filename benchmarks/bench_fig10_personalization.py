"""Figure 10 — personalized (contextual) model selection on the speech corpus.

Hosts one model per dialect plus a dialect-oblivious model, serves each
held-out speaker's utterances through Clipper as an online session with
feedback (the speaker as ``user_id``), and compares three strategies: the
user's reported dialect model ("static dialect"), the global model ("no
dialect"), and Clipper's per-user ``"exp4"`` selection at its served
defaults.  Shape checks mirror the paper: dialect-specific models beat the
dialect-oblivious one, and after a few feedback interactions the contextual
selection policy matches or beats the static dialect choice.
"""

import numpy as np
import pytest

from conftest import record_result
from paperkit.datasets.speech import load_timit_like
from paperkit.served_selection import personalization_experiment
from paperkit.reporting import format_table
from paperkit.suites import build_user_streams, dialect_model_suite

MAX_FEEDBACK = 8


@pytest.fixture(scope="module")
def speech_setup():
    corpus = load_timit_like(n_speakers=120, utterances_per_speaker=10, random_state=7)
    models, global_name = dialect_model_suite(corpus, random_state=0)
    streams, dialect_of_user = build_user_streams(corpus, models, max_steps=MAX_FEEDBACK + 1)
    dialect_model_name = {
        dialect: f"dialect-{dialect}" for dialect in range(corpus.n_dialects)
    }
    return streams, dialect_of_user, dialect_model_name, global_name


def test_fig10_personalized_selection(benchmark, speech_setup):
    streams, dialect_of_user, dialect_model_name, global_name = speech_setup

    def run():
        return personalization_experiment(
            streams,
            dialect_of_user,
            dialect_model_name=dialect_model_name,
            global_model_name=global_name,
            max_feedback=MAX_FEEDBACK,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_result(
        "fig10_personalization",
        format_table(result.as_rows(), title="Figure 10: error vs feedback interactions"),
    )

    static = np.array(result.static_dialect_error)
    global_error = np.array(result.no_dialect_error)
    policy_error = np.array(result.clipper_policy_error)

    # Dialect-specific models out-perform the dialect-oblivious model overall.
    assert static.mean() < global_error.mean()
    # After a few feedback rounds the contextual policy is competitive with
    # (or better than) the static dialect model and beats the global model.
    late = slice(MAX_FEEDBACK // 2, None)
    assert policy_error[late].mean() <= global_error[late].mean() + 0.02
    assert policy_error[late].mean() <= static[late].mean() + 0.10
    # And the policy improves as feedback accumulates.
    assert policy_error[late].mean() <= policy_error[: MAX_FEEDBACK // 2].mean() + 0.02
