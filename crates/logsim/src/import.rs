//! Importing real interaction logs.
//!
//! The rest of the workspace consumes a [`Dataset`]; this module builds one
//! from an external event log instead of the synthetic generator, so the
//! pipeline can be trained on production data. The format is a CSV of
//! events, one action per line:
//!
//! ```csv
//! session,user,minute,action
//! s-001,alice,12,ActionSearchUser
//! s-001,alice,12,ActionDisplayUser
//! s-002,bob,45,ActionListQueue
//! ```
//!
//! Events are grouped by session id **in file order** (the order within a
//! session is the action sequence); session start time is the first event's
//! minute. The catalog is either the [`crate::ActionCatalog::standard`]
//! catalog (unknown actions rejected) or built from the observed actions.

#![expect(clippy::disallowed_types, reason = "session assembly follows the file-order `order` vec, user interning is first-seen lookup-only, and the one values() iteration is sorted and deduped before use")]

use std::collections::HashMap;
use std::io::BufRead;

use crate::catalog::ActionCatalog;
use crate::dataset::Dataset;
use crate::error::LogsimError;
use crate::ids::{SessionId, UserId};
use crate::session::Session;

/// How the importer maps action names to ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogMode {
    /// Use the standard catalog; reject events whose action is unknown.
    Standard,
    /// Build a catalog from the distinct actions observed in the log.
    FromLog,
}

/// Imports event logs into [`Dataset`]s.
///
/// # Example
///
/// ```
/// use ibcm_logsim::{CatalogMode, LogImporter};
/// let csv = "session,user,minute,action\n\
///            s1,alice,0,ActionSearchUser\n\
///            s1,alice,0,ActionDisplayUser\n\
///            s2,bob,5,ActionListQueue\n";
/// let dataset = LogImporter::new(CatalogMode::Standard)
///     .read_csv(csv.as_bytes())?;
/// assert_eq!(dataset.sessions().len(), 2);
/// # Ok::<(), ibcm_logsim::LogsimError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LogImporter {
    mode: CatalogMode,
}

impl LogImporter {
    /// Creates an importer.
    pub fn new(mode: CatalogMode) -> Self {
        LogImporter { mode }
    }

    /// Reads a CSV event log (header required) from any reader.
    ///
    /// # Errors
    ///
    /// Returns [`LogsimError::InvalidConfig`] for malformed rows, unknown
    /// actions (in [`CatalogMode::Standard`]), or an empty log, and
    /// [`LogsimError::Import`] (with the offending 1-based line number) for
    /// rows with blank fields or a minute earlier than a previous row of
    /// the same session.
    pub fn read_csv<R: BufRead>(&self, reader: R) -> Result<Dataset, LogsimError> {
        let mut lines = reader.lines();
        let header = lines
            .next()
            .transpose()
            .map_err(|e| LogsimError::InvalidConfig(format!("read failed: {e}")))?
            .ok_or_else(|| LogsimError::InvalidConfig("empty log".into()))?;
        let cols: Vec<&str> = header.split(',').map(str::trim).collect();
        let idx_of = |name: &str| -> Result<usize, LogsimError> {
            cols.iter().position(|&c| c == name).ok_or_else(|| {
                LogsimError::InvalidConfig(format!("missing column '{name}' in header"))
            })
        };
        let (si, ui, mi, ai) = (
            idx_of("session")?,
            idx_of("user")?,
            idx_of("minute")?,
            idx_of("action")?,
        );

        // Pass 1: collect events grouped by session, in file order.
        struct Raw {
            user: String,
            minute: u64,
            /// Minute of the session's most recent row; each row must be
            /// at or after it (event order within a session is the action
            /// sequence, so a backwards clock means a scrambled log).
            last_minute: u64,
            actions: Vec<String>,
        }
        let mut order: Vec<String> = Vec::new();
        let mut by_session: HashMap<String, Raw> = HashMap::new();
        for (lineno, line) in lines.enumerate() {
            let line =
                line.map_err(|e| LogsimError::InvalidConfig(format!("read failed: {e}")))?;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            let need = [si, ui, mi, ai].into_iter().max().unwrap_or(0);
            if fields.len() <= need {
                return Err(LogsimError::InvalidConfig(format!(
                    "line {}: expected at least {} fields, got {}",
                    lineno + 2,
                    need + 1,
                    fields.len()
                )));
            }
            for (col, name) in [(si, "session"), (ui, "user"), (mi, "minute"), (ai, "action")]
            {
                if fields[col].is_empty() {
                    return Err(LogsimError::Import {
                        line: lineno + 2,
                        msg: format!("blank '{name}' field"),
                    });
                }
            }
            let minute: u64 = fields[mi].parse().map_err(|_| {
                LogsimError::InvalidConfig(format!(
                    "line {}: minute '{}' is not an integer",
                    lineno + 2,
                    fields[mi]
                ))
            })?;
            let entry = by_session.entry(fields[si].to_string()).or_insert_with(|| {
                order.push(fields[si].to_string());
                Raw {
                    user: fields[ui].to_string(),
                    minute,
                    last_minute: minute,
                    actions: Vec::new(),
                }
            });
            if minute < entry.last_minute {
                return Err(LogsimError::Import {
                    line: lineno + 2,
                    msg: format!(
                        "session {}: minute {minute} precedes the session's previous \
                         event at minute {}",
                        fields[si], entry.last_minute
                    ),
                });
            }
            entry.last_minute = minute;
            entry.actions.push(fields[ai].to_string());
        }
        if order.is_empty() {
            return Err(LogsimError::InvalidConfig("log contains no events".into()));
        }

        // Catalog resolution.
        let catalog = match self.mode {
            CatalogMode::Standard => ActionCatalog::standard(),
            CatalogMode::FromLog => {
                let mut names: Vec<String> = by_session
                    .values()
                    .flat_map(|r| r.actions.iter().cloned())
                    .collect();
                names.sort();
                names.dedup();
                ActionCatalog::from_names(&names)
            }
        };

        // User interning, session assembly in first-seen order.
        let mut user_ids: HashMap<String, UserId> = HashMap::new();
        let mut sessions = Vec::with_capacity(order.len());
        for (i, sid) in order.iter().enumerate() {
            let raw = &by_session[sid];
            let n_users = user_ids.len();
            let user = *user_ids
                .entry(raw.user.clone())
                .or_insert(UserId(n_users));
            let mut actions = Vec::with_capacity(raw.actions.len());
            for name in &raw.actions {
                let id = catalog.id(name).ok_or_else(|| {
                    LogsimError::InvalidConfig(format!(
                        "session {sid}: unknown action '{name}' (standard catalog mode)"
                    ))
                })?;
                actions.push(id);
            }
            sessions.push(Session::new(SessionId(i), user, raw.minute, actions));
        }
        let n_users = user_ids.len();
        let days = sessions
            .iter()
            .map(Session::start_minute)
            .max()
            .unwrap_or(0)
            / (24 * 60)
            + 1;
        Ok(Dataset::new(catalog, Vec::new(), sessions, n_users, days as usize))
    }
}

/// Writes a dataset back out as the importer's CSV format.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_csv_log<W: std::io::Write>(
    dataset: &Dataset,
    mut writer: W,
) -> std::io::Result<()> {
    writeln!(writer, "session,user,minute,action")?;
    for s in dataset.sessions() {
        for a in s.actions() {
            writeln!(
                writer,
                "{},{},{},{}",
                s.id(),
                s.user(),
                s.start_minute(),
                dataset.catalog().name(*a)
            )?;
        }
    }
    Ok(())
}

impl ActionCatalog {
    /// Builds a catalog from explicit action names (log import). All
    /// actions land in one `Imported` group; none are marked sensitive or
    /// navigation unless their names match the standard conventions
    /// (`Delete`/`Create`/`Pwd`/`UnLock` => sensitive; `ActionLogin`-style
    /// housekeeping => navigation).
    ///
    /// # Panics
    ///
    /// Panics if `names` contains duplicates or is empty.
    pub fn from_names(names: &[String]) -> Self {
        assert!(!names.is_empty(), "catalog needs at least one action");
        let mut sorted = names.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate action names");
        ActionCatalog::from_names_impl(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "session,user,minute,action\n\
        s1,alice,10,ActionSearchUser\n\
        s1,alice,10,ActionDisplayUser\n\
        s2,bob,1500,ActionListQueue\n\
        s1,alice,10,ActionUnLockUser\n\
        s3,alice,2000,ActionDeleteUser\n";

    #[test]
    fn imports_sessions_in_order_with_interleaving() {
        let ds = LogImporter::new(CatalogMode::Standard)
            .read_csv(SAMPLE.as_bytes())
            .unwrap();
        assert_eq!(ds.sessions().len(), 3);
        // s1 collected its three events despite the s2 line between them.
        let s1 = &ds.sessions()[0];
        assert_eq!(s1.len(), 3);
        assert_eq!(ds.catalog().name(s1.actions()[2]), "ActionUnLockUser");
        // Two distinct users.
        assert_eq!(ds.stats().users, 2);
        // Days span from the latest minute.
        assert_eq!(ds.stats().days, 2000 / (24 * 60) + 1);
    }

    #[test]
    fn standard_mode_rejects_unknown_actions() {
        let bad = "session,user,minute,action\ns1,u,0,ActionDoesNotExist\n";
        let err = LogImporter::new(CatalogMode::Standard)
            .read_csv(bad.as_bytes())
            .unwrap_err();
        assert!(err.to_string().contains("ActionDoesNotExist"));
    }

    #[test]
    fn from_log_mode_builds_catalog() {
        let log = "session,user,minute,action\n\
            s1,u,0,CustomFoo\ns1,u,0,CustomBar\ns2,v,9,CustomFoo\n";
        let ds = LogImporter::new(CatalogMode::FromLog)
            .read_csv(log.as_bytes())
            .unwrap();
        assert_eq!(ds.catalog().len(), 2);
        assert!(ds.catalog().id("CustomFoo").is_some());
        assert!(ds.catalog().id("CustomBar").is_some());
    }

    #[test]
    fn malformed_rows_rejected() {
        for bad in [
            "",                                        // empty
            "session,user,minute\ns1,u,0\n",           // missing column
            "session,user,minute,action\ns1,u,xx,A\n", // bad minute
            "session,user,minute,action\ns1,u\n",      // short row
        ] {
            assert!(
                LogImporter::new(CatalogMode::FromLog)
                    .read_csv(bad.as_bytes())
                    .is_err(),
                "should reject: {bad:?}"
            );
        }
    }

    #[test]
    fn blank_fields_rejected_with_line_number() {
        for (log, field) in [
            ("session,user,minute,action\ns1,u,0,A\n,u,1,A\n", "session"),
            ("session,user,minute,action\ns1,u,0,A\ns1,,1,A\n", "user"),
            ("session,user,minute,action\ns1,u,0,A\ns1,u,,A\n", "minute"),
            ("session,user,minute,action\ns1,u,0,A\ns1,u,1,\n", "action"),
        ] {
            let err = LogImporter::new(CatalogMode::FromLog)
                .read_csv(log.as_bytes())
                .unwrap_err();
            match err {
                LogsimError::Import { line, ref msg } => {
                    assert_eq!(line, 3, "blank {field}: {err}");
                    assert!(msg.contains(field), "message should name '{field}': {msg}");
                }
                other => panic!("expected Import error for blank {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_monotonic_session_minutes_rejected_with_line_number() {
        // s1's clock runs backwards on line 4; s2 interleaving is fine.
        let log = "session,user,minute,action\n\
            s1,u,10,CustomA\n\
            s2,v,3,CustomB\n\
            s1,u,7,CustomA\n";
        let err = LogImporter::new(CatalogMode::FromLog)
            .read_csv(log.as_bytes())
            .unwrap_err();
        match err {
            LogsimError::Import { line, ref msg } => {
                assert_eq!(line, 4);
                assert!(msg.contains("minute 7"), "{msg}");
                assert!(msg.contains("minute 10"), "{msg}");
            }
            other => panic!("expected Import error, got {other:?}"),
        }
        // Equal minutes (several actions in the same minute) stay legal.
        let ok = "session,user,minute,action\n\
            s1,u,10,CustomA\ns1,u,10,CustomB\ns1,u,12,CustomA\n";
        assert!(LogImporter::new(CatalogMode::FromLog)
            .read_csv(ok.as_bytes())
            .is_ok());
    }

    #[test]
    fn csv_round_trip() {
        let ds = LogImporter::new(CatalogMode::Standard)
            .read_csv(SAMPLE.as_bytes())
            .unwrap();
        let mut out = Vec::new();
        write_csv_log(&ds, &mut out).unwrap();
        let back = LogImporter::new(CatalogMode::Standard)
            .read_csv(out.as_slice())
            .unwrap();
        assert_eq!(ds.sessions().len(), back.sessions().len());
        for (a, b) in ds.sessions().iter().zip(back.sessions()) {
            assert_eq!(a.actions(), b.actions());
            assert_eq!(a.start_minute(), b.start_minute());
        }
    }

    #[test]
    fn imported_sensitive_actions_detected_by_convention() {
        let log = "session,user,minute,action\n\
            s1,u,0,ActionDeleteAccount\ns1,u,0,ActionViewPage\n";
        let ds = LogImporter::new(CatalogMode::FromLog)
            .read_csv(log.as_bytes())
            .unwrap();
        let del = ds.catalog().id("ActionDeleteAccount").unwrap();
        let view = ds.catalog().id("ActionViewPage").unwrap();
        assert!(ds.catalog().is_sensitive(del));
        assert!(!ds.catalog().is_sensitive(view));
    }
}
