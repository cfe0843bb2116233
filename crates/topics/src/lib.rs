//! `ibcm-topics` — LDA topic modeling for interaction sessions.
//!
//! The paper treats each session as a *document* whose *words* are actions
//! and runs an **ensemble of LDA models** with different topic counts and
//! seeds (following Chen et al., "LDA ensembles for interactive exploration
//! and categorization of behaviors"). The resulting topics, the topic-action
//! matrix, and the document-topic matrix feed the visual interface through
//! which security experts group topics into behavior clusters.
//!
//! This crate implements:
//!
//! - [`Lda`]: collapsed Gibbs sampling LDA with symmetric priors,
//! - [`TopicModel`]: the fitted `phi` (topic-action) and `theta`
//!   (document-topic) matrices plus perplexity,
//! - [`Ensemble`]: multiple LDA runs over a `(topic count, seed)` grid, with
//!   a flat, provenance-tagged topic list,
//! - [`js_divergence`] / [`topic_distance_matrix`]: Jensen–Shannon topic
//!   similarity used by the t-SNE projection and the chord diagram.
//!
//! # Example
//!
//! ```
//! use ibcm_topics::{Lda, LdaConfig};
//! let docs = vec![vec![0, 0, 1], vec![2, 2, 3], vec![0, 1, 1]];
//! let model = Lda::new(LdaConfig { n_topics: 2, vocab: 4, iterations: 20, seed: 1, ..LdaConfig::default() })
//!     .fit(&docs)
//!     .unwrap();
//! assert_eq!(model.n_topics(), 2);
//! ```

#![forbid(unsafe_code)]
// Index-based loops are the clearest notation for the numeric kernels here.
#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]

mod ensemble;
mod error;
mod lda;
mod similarity;

pub use ensemble::{Ensemble, EnsembleConfig, Topic, TopicId};
pub use error::TopicsError;
pub use lda::{Lda, LdaConfig, TopicModel};
pub use similarity::{js_divergence, kl_divergence, topic_distance_matrix};

/// Converts sessions to LDA documents (sequences of action indices).
///
/// Sessions shorter than `min_len` actions are skipped together with their
/// indices; the returned map gives, for each document, the index of the
/// originating session in `sessions`.
pub fn sessions_to_docs(
    sessions: &[ibcm_logsim::Session],
    min_len: usize,
) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut docs = Vec::new();
    let mut origin = Vec::new();
    for (i, s) in sessions.iter().enumerate() {
        if s.len() >= min_len {
            docs.push(s.actions().iter().map(|a| a.index()).collect());
            origin.push(i);
        }
    }
    (docs, origin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibcm_logsim::{ActionId, Session, SessionId, UserId};

    #[test]
    fn sessions_to_docs_filters_short() {
        let sessions = vec![
            Session::new(SessionId(0), UserId(0), 0, vec![ActionId(1)]),
            Session::new(SessionId(1), UserId(0), 0, vec![ActionId(1), ActionId(2)]),
        ];
        let (docs, origin) = sessions_to_docs(&sessions, 2);
        assert_eq!(docs, vec![vec![1, 2]]);
        assert_eq!(origin, vec![1]);
    }
}
