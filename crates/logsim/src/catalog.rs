#![expect(clippy::disallowed_types, reason = "by_name and group_index are lookup/dedup tables; they are never iterated, so hash order cannot reach any output")]

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::ids::ActionId;

/// Entities administered through the simulated portal. Crossing these with
/// the CRUD-ish verb set below yields the bulk of the ~300-action catalog,
/// mirroring the scale and naming style of the paper's dataset.
const ENTITIES: &[&str] = &[
    "User", "Office", "Role", "Profile", "TFARule", "SecurityRule", "Certificate", "Queue",
    "Report", "Alert", "AuditLog", "Session", "Group", "Application", "Partner", "Market",
    "Device", "Policy", "Template", "Workflow",
];

/// Verbs applied to every entity.
const VERBS: &[&str] = &[
    "Search",
    "Display",
    "DisplayOne",
    "List",
    "Create",
    "Modify",
    "Save",
    "Delete",
    "WarningDelete",
    "Export",
    "Validate",
    "Copy",
    "Assign",
    "Revoke",
];

/// Navigation / housekeeping actions shared by every behavior.
const NAVIGATION: &[&str] = &[
    "ActionLogin",
    "ActionLogout",
    "ActionHome",
    "ActionDisplayDashboard",
    "ActionHelp",
    "ActionDisplayNotifications",
    "ActionAckNotification",
    "ActionChangeLanguage",
    "ActionDisplayOwnProfile",
    "ActionRefreshView",
    "ActionOpenMenu",
    "ActionCloseMenu",
    "ActionBack",
    "ActionKeepAlive",
];

/// Irregularly named actions the paper mentions verbatim, plus
/// security-workflow specials that do not fit the verb x entity cross.
const SPECIALS: &[(&str, &str)] = &[
    ("ActionSearchUsr", "User"),
    ("ActionUnLockUser", "User"),
    ("ActionUnLockDisplayedUser", "User"),
    ("ActionLockUser", "User"),
    ("ActionResetPwd", "User"),
    ("ActionResetPwdUnlock", "User"),
    ("ActionForcePwdChange", "User"),
    ("ActionSendPwdEmail", "User"),
    ("ActionClearFailedLogins", "User"),
    ("ActionDisplayDirectTFARule", "TFARule"),
    ("ActionDisplayUserHistory", "User"),
    ("ActionDisplayUserRoles", "User"),
];

/// A named group of related actions (one per entity, plus `Navigation`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionGroup {
    name: String,
    actions: Vec<ActionId>,
}

impl ActionGroup {
    /// Group name (the entity it administers, or `"Navigation"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Actions belonging to this group.
    pub fn actions(&self) -> &[ActionId] {
        &self.actions
    }
}

/// The fixed set of actions the simulated system supports (the paper's set
/// `A`, `|A| ~= 300`).
///
/// # Example
///
/// ```
/// let catalog = ibcm_logsim::ActionCatalog::standard();
/// assert!(catalog.len() >= 290 && catalog.len() <= 320);
/// let del = catalog.id("ActionDeleteUser").unwrap();
/// assert_eq!(catalog.name(del), "ActionDeleteUser");
/// assert!(catalog.is_sensitive(del));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionCatalog {
    names: Vec<String>,
    groups: Vec<ActionGroup>,
    by_name: HashMap<String, ActionId>,
    sensitive: Vec<ActionId>,
    navigation: Vec<ActionId>,
}

impl ActionCatalog {
    /// Builds the standard ~300-action catalog.
    pub fn standard() -> Self {
        let mut names: Vec<String> = Vec::new();
        let mut groups: Vec<ActionGroup> = Vec::new();
        let mut group_index: HashMap<String, usize> = HashMap::new();

        let push = |names: &mut Vec<String>,
                        groups: &mut Vec<ActionGroup>,
                        group_index: &mut HashMap<String, usize>,
                        name: String,
                        group: &str| {
            let id = ActionId(names.len());
            names.push(name);
            let gi = *group_index.entry(group.to_string()).or_insert_with(|| {
                groups.push(ActionGroup {
                    name: group.to_string(),
                    actions: Vec::new(),
                });
                groups.len() - 1
            });
            groups[gi].actions.push(id);
            id
        };

        let mut navigation = Vec::new();
        for &n in NAVIGATION {
            let id = push(
                &mut names,
                &mut groups,
                &mut group_index,
                n.to_string(),
                "Navigation",
            );
            navigation.push(id);
        }
        for &entity in ENTITIES {
            for &verb in VERBS {
                push(
                    &mut names,
                    &mut groups,
                    &mut group_index,
                    format!("Action{verb}{entity}"),
                    entity,
                );
            }
        }
        for &(name, group) in SPECIALS {
            push(
                &mut names,
                &mut groups,
                &mut group_index,
                name.to_string(),
                group,
            );
        }

        let by_name: HashMap<String, ActionId> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), ActionId(i)))
            .collect();

        // "Active modifications of existing user profiles are most alarming"
        // (paper §IV-D) — the actions the simulated misuse bursts abuse.
        let sensitive = [
            "ActionDeleteUser",
            "ActionWarningDeleteUser",
            "ActionCreateUser",
            "ActionResetPwdUnlock",
            "ActionUnLockUser",
            "ActionUnLockDisplayedUser",
            "ActionResetPwd",
            "ActionForcePwdChange",
        ]
        .iter()
        .map(|n| by_name[*n])
        .collect();

        ActionCatalog {
            names,
            groups,
            by_name,
            sensitive,
            navigation,
        }
    }

    /// Number of distinct actions (`d` in the paper).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if the catalog has no actions.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name of an action.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn name(&self, id: ActionId) -> &str {
        &self.names[id.index()]
    }

    /// Looks an action up by its exact name.
    pub fn id(&self, name: &str) -> Option<ActionId> {
        self.by_name.get(name).copied()
    }

    /// All action groups (per-entity plus `Navigation`).
    pub fn groups(&self) -> &[ActionGroup] {
        &self.groups
    }

    /// The group with the given name, if any.
    pub fn group(&self, name: &str) -> Option<&ActionGroup> {
        self.groups.iter().find(|g| g.name == name)
    }

    /// Navigation actions (interleaved into every behavior).
    pub fn navigation(&self) -> &[ActionId] {
        &self.navigation
    }

    /// Actions security experts consider alarming when repeated in bulk.
    pub fn sensitive(&self) -> &[ActionId] {
        &self.sensitive
    }

    /// Returns `true` if `id` is one of the sensitive actions.
    pub fn is_sensitive(&self, id: ActionId) -> bool {
        self.sensitive.contains(&id)
    }

    /// Internal constructor for catalogs imported from logs (see
    /// `ActionCatalog::from_names`). Sensitivity and navigation are inferred
    /// from naming conventions.
    pub(crate) fn from_names_impl(names: &[String]) -> Self {
        let by_name: HashMap<String, ActionId> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), ActionId(i)))
            .collect();
        let sensitive: Vec<ActionId> = names
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                n.contains("Delete") || n.contains("Create") || n.contains("Pwd")
                    || n.contains("UnLock") || n.contains("Revoke")
            })
            .map(|(i, _)| ActionId(i))
            .collect();
        let navigation: Vec<ActionId> = names
            .iter()
            .enumerate()
            .filter(|(_, n)| NAVIGATION.contains(&n.as_str()))
            .map(|(i, _)| ActionId(i))
            .collect();
        let groups = vec![ActionGroup {
            name: "Imported".to_string(),
            actions: (0..names.len()).map(ActionId).collect(),
        }];
        ActionCatalog {
            names: names.to_vec(),
            groups,
            by_name,
            sensitive,
            navigation,
        }
    }

    /// Iterates over `(id, name)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ActionId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (ActionId(i), n.as_str()))
    }
}

impl Default for ActionCatalog {
    fn default() -> Self {
        ActionCatalog::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_matches_paper_scale() {
        let c = ActionCatalog::standard();
        assert!(
            (290..=320).contains(&c.len()),
            "catalog has {} actions, expected ~300",
            c.len()
        );
    }

    #[test]
    fn paper_mentioned_actions_exist() {
        let c = ActionCatalog::standard();
        for name in [
            "ActionSearchUser",
            "ActionSearchUsr",
            "ActionDisplayUser",
            "ActionDeleteUser",
            "ActionWarningDeleteUser",
            "ActionCreateUser",
            "ActionResetPwdUnlock",
            "ActionUnLockDisplayedUser",
            "ActionUnLockUser",
            "ActionSearchOffice",
            "ActionDisplayOneOffice",
            "ActionDisplayDirectTFARule",
        ] {
            assert!(c.id(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn names_are_unique() {
        let c = ActionCatalog::standard();
        let mut sorted: Vec<&String> = c.names.iter().collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), c.len());
    }

    #[test]
    fn every_action_belongs_to_exactly_one_group() {
        let c = ActionCatalog::standard();
        let mut seen = vec![0usize; c.len()];
        for g in c.groups() {
            for a in g.actions() {
                seen[a.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1));
    }

    #[test]
    fn lookup_round_trip() {
        let c = ActionCatalog::standard();
        for (id, name) in c.iter() {
            assert_eq!(c.id(name), Some(id));
        }
    }

    #[test]
    fn sensitive_are_user_related() {
        let c = ActionCatalog::standard();
        assert!(!c.sensitive().is_empty());
        for &s in c.sensitive() {
            assert!(c.name(s).contains("User") || c.name(s).contains("Pwd"));
        }
    }

    #[test]
    fn navigation_group_exists() {
        let c = ActionCatalog::standard();
        let nav = c.group("Navigation").unwrap();
        assert_eq!(nav.actions().len(), c.navigation().len());
        assert!(c.id("ActionLogin").is_some());
    }
}
