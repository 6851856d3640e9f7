//! `lint.toml` configuration: rule severities, per-crate overrides and
//! rule scoping, parsed with a minimal hand-rolled TOML-subset reader
//! (tables, string values, string arrays, comments).

use std::collections::BTreeMap;
use std::fmt;

/// How a finding is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suppressed entirely.
    Allow,
    /// Reported, does not fail the build.
    Warn,
    /// Reported and fails the build.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

impl Severity {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "allow" => Ok(Severity::Allow),
            "warn" => Ok(Severity::Warn),
            "deny" => Ok(Severity::Deny),
            other => Err(format!(
                "invalid severity `{other}` (expected allow | warn | deny)"
            )),
        }
    }
}

/// Parsed lint configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Default severity per rule name.
    pub defaults: BTreeMap<String, Severity>,
    /// Per-crate rule severity overrides.
    pub overrides: BTreeMap<String, BTreeMap<String, Severity>>,
    /// Crates whose library code the determinism rule applies to.
    pub determinism_crates: Vec<String>,
    /// Crates exempt from the unit-safety rule (the newtypes live there).
    pub unit_safety_exempt: Vec<String>,
    /// Crates allowed to touch `Instant`/`SystemTime` directly (the
    /// sanctioned wall-clock seam; everything else goes through it).
    pub wall_clock_exempt: Vec<String>,
    /// Crates exempt from the pub-surface rule (e.g. pure re-export
    /// facades whose surface exists for out-of-workspace users).
    pub pub_surface_exempt: Vec<String>,
    /// Workspace-relative path prefixes that are never scanned.
    pub exclude: Vec<String>,
    /// `[layering]`: crates importable by everyone (the shared base).
    pub layering_common: Vec<String>,
    /// `[layering]`: sanctioned *direct* dependencies per crate. A crate
    /// may also reach anything in the transitive closure of its listed
    /// deps, plus the common set. An empty map disables the rule.
    pub layering: BTreeMap<String, Vec<String>>,
    /// `[hot-paths] functions`: `crate::file_stem::fn_name` patterns (a
    /// trailing `*` globs the function segment) whose loop bodies the
    /// hot-path-alloc rule scans. Empty disables the rule.
    pub hot_paths: Vec<String>,
    /// `[obs-names] registry`: workspace-relative path of the checked-in
    /// metric-name registry file.
    pub obs_registry: String,
}

impl Default for Config {
    fn default() -> Self {
        let mut defaults = BTreeMap::new();
        for (rule, severity) in [
            ("determinism", Severity::Deny),
            ("unit-safety", Severity::Deny),
            ("panic-safety", Severity::Deny),
            ("slice-indexing", Severity::Allow),
            ("float-compare", Severity::Deny),
            ("obs-purity", Severity::Deny),
            ("allow-reason", Severity::Deny),
            ("unused-allow", Severity::Warn),
            ("bench-cli", Severity::Deny),
            ("wall-clock", Severity::Deny),
            ("layering", Severity::Deny),
            ("hot-path-alloc", Severity::Deny),
            ("obs-name-registry", Severity::Deny),
            ("pub-surface", Severity::Deny),
        ] {
            defaults.insert(rule.to_string(), severity);
        }
        Self {
            defaults,
            overrides: BTreeMap::new(),
            determinism_crates: ["ecas-sim", "ecas-abr", "ecas-trace", "ecas-core"]
                .map(String::from)
                .to_vec(),
            unit_safety_exempt: vec!["ecas-types".to_string()],
            wall_clock_exempt: vec!["ecas-obs".to_string()],
            pub_surface_exempt: Vec::new(),
            exclude: vec!["vendor".to_string(), "target".to_string()],
            layering_common: Vec::new(),
            layering: BTreeMap::new(),
            hot_paths: Vec::new(),
            obs_registry: "crates/obs/src/names.rs".to_string(),
        }
    }
}

impl Config {
    /// Effective severity for `rule` inside `krate`.
    #[must_use]
    pub fn severity(&self, rule: &str, krate: &str) -> Severity {
        if let Some(sev) = self.overrides.get(krate).and_then(|m| m.get(rule)) {
            return *sev;
        }
        self.defaults.get(rule).copied().unwrap_or(Severity::Warn)
    }

    /// Whether the determinism rule applies to `krate`.
    #[must_use]
    pub fn determinism_applies(&self, krate: &str) -> bool {
        self.determinism_crates.iter().any(|c| c == krate)
    }

    /// Whether the unit-safety rule applies to `krate`.
    #[must_use]
    pub fn unit_safety_applies(&self, krate: &str) -> bool {
        !self.unit_safety_exempt.iter().any(|c| c == krate)
    }

    /// Whether the wall-clock rule applies to `krate`. Determinism-scoped
    /// crates are excluded: the determinism rule already bans wall-clock
    /// sources there (plus entropy and hash-order), so one finding per
    /// site suffices.
    #[must_use]
    pub fn wall_clock_applies(&self, krate: &str) -> bool {
        !self.determinism_applies(krate) && !self.wall_clock_exempt.iter().any(|c| c == krate)
    }

    /// Whether the pub-surface rule applies to `krate`.
    #[must_use]
    pub fn pub_surface_applies(&self, krate: &str) -> bool {
        !self.pub_surface_exempt.iter().any(|c| c == krate)
    }

    /// Whether a workspace-relative path is excluded from scanning.
    #[must_use]
    pub fn is_excluded(&self, rel_path: &str) -> bool {
        self.exclude.iter().any(|p| rel_path.starts_with(p.as_str()))
    }

    /// Parses a `lint.toml` document on top of the built-in defaults.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for unparseable input,
    /// unknown severities, or unknown rule names.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut config = Config::default();
        let mut section = String::new();
        let mut pending: Option<(String, String)> = None; // multi-line array

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }

            if let Some((key, buf)) = pending.take() {
                let mut buf = buf;
                buf.push(' ');
                buf.push_str(&line);
                if buf.trim_end().ends_with(']') {
                    config.apply(&section, &key, buf.trim(), lineno)?;
                } else {
                    pending = Some((key, buf));
                }
                continue;
            }

            if line.starts_with('[') && line.ends_with(']') {
                section = line[1..line.len() - 1].trim().to_string();
                continue;
            }

            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("lint.toml:{lineno}: expected `key = value`"));
            };
            let key = key.trim().to_string();
            let value = value.trim().to_string();
            if value.starts_with('[') && !value.ends_with(']') {
                pending = Some((key, value));
                continue;
            }
            config.apply(&section, &key, &value, lineno)?;
        }
        if pending.is_some() {
            return Err("lint.toml: unterminated array value".to_string());
        }
        Ok(config)
    }

    fn apply(&mut self, section: &str, key: &str, value: &str, lineno: usize) -> Result<(), String> {
        match section {
            "rules" => {
                if !self.defaults.contains_key(key) {
                    return Err(format!("lint.toml:{lineno}: unknown rule `{key}`"));
                }
                let sev = Severity::parse(&parse_string(value, lineno)?)
                    .map_err(|e| format!("lint.toml:{lineno}: {e}"))?;
                self.defaults.insert(key.to_string(), sev);
            }
            "scope" => match key {
                "determinism" => self.determinism_crates = parse_array(value, lineno)?,
                "unit-safety-exempt" => self.unit_safety_exempt = parse_array(value, lineno)?,
                "wall-clock-exempt" => self.wall_clock_exempt = parse_array(value, lineno)?,
                "pub-surface-exempt" => self.pub_surface_exempt = parse_array(value, lineno)?,
                "exclude" => self.exclude = parse_array(value, lineno)?,
                other => {
                    return Err(format!("lint.toml:{lineno}: unknown scope key `{other}`"));
                }
            },
            "layering" => {
                if key == "common" {
                    self.layering_common = parse_array(value, lineno)?;
                } else {
                    self.layering
                        .insert(key.to_string(), parse_array(value, lineno)?);
                }
            }
            "hot-paths" => match key {
                "functions" => self.hot_paths = parse_array(value, lineno)?,
                other => {
                    return Err(format!("lint.toml:{lineno}: unknown hot-paths key `{other}`"));
                }
            },
            "obs-names" => match key {
                "registry" => self.obs_registry = parse_string(value, lineno)?,
                other => {
                    return Err(format!("lint.toml:{lineno}: unknown obs-names key `{other}`"));
                }
            },
            s => {
                let Some(krate) = s.strip_prefix("overrides.") else {
                    return Err(format!("lint.toml:{lineno}: unknown section `[{s}]`"));
                };
                if !self.defaults.contains_key(key) {
                    return Err(format!("lint.toml:{lineno}: unknown rule `{key}`"));
                }
                let sev = Severity::parse(&parse_string(value, lineno)?)
                    .map_err(|e| format!("lint.toml:{lineno}: {e}"))?;
                self.overrides
                    .entry(krate.to_string())
                    .or_default()
                    .insert(key.to_string(), sev);
            }
        }
        Ok(())
    }
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("lint.toml:{lineno}: expected a quoted string"))
    }
}

fn parse_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let v = value.trim();
    let Some(body) = v.strip_prefix('[').and_then(|v| v.strip_suffix(']')) else {
        return Err(format!("lint.toml:{lineno}: expected an array of strings"));
    };
    let mut out = Vec::new();
    for item in body.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_string(item, lineno)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = Config::default();
        assert_eq!(c.severity("panic-safety", "ecas-sim"), Severity::Deny);
        assert_eq!(c.severity("slice-indexing", "ecas-sim"), Severity::Allow);
        assert!(c.determinism_applies("ecas-sim"));
        assert!(!c.determinism_applies("ecas-obs"));
        assert!(!c.unit_safety_applies("ecas-types"));
        assert!(c.wall_clock_applies("ecas-bench"));
        assert!(!c.wall_clock_applies("ecas-obs"));
        assert!(!c.wall_clock_applies("ecas-sim"));
    }

    #[test]
    fn parse_overrides_and_scope() {
        let toml = r#"
# comment
[rules]
panic-safety = "deny"
slice-indexing = "allow"

[scope]
determinism = ["ecas-sim",
    "ecas-abr"]
wall-clock-exempt = ["ecas-obs", "ecas-bench"]
exclude = ["vendor"]

[overrides.ecas-sim]
slice-indexing = "deny"
"#;
        let c = Config::parse(toml).expect("parses");
        assert_eq!(c.severity("slice-indexing", "ecas-sim"), Severity::Deny);
        assert_eq!(c.severity("slice-indexing", "ecas-qoe"), Severity::Allow);
        assert_eq!(c.determinism_crates, ["ecas-sim", "ecas-abr"]);
        assert!(!c.wall_clock_applies("ecas-bench"));
        assert!(c.wall_clock_applies("ecas-lint"));
        assert!(c.is_excluded("vendor/rand/src/lib.rs"));
    }

    #[test]
    fn parse_workspace_rule_sections() {
        let toml = r#"
[layering]
common = ["ecas-types", "ecas-obs"]
ecas-sim = ["ecas-trace", "ecas-net"]
ecas-core = ["ecas-sim"]

[hot-paths]
functions = ["ecas-sim::player::run_inner", "ecas-abr::optimal::solve_layers"]

[obs-names]
registry = "crates/obs/src/names.rs"

[scope]
pub-surface-exempt = ["ecas"]
"#;
        let c = Config::parse(toml).expect("parses");
        assert_eq!(c.layering_common, ["ecas-types", "ecas-obs"]);
        assert_eq!(c.layering["ecas-core"], ["ecas-sim"]);
        assert_eq!(c.hot_paths.len(), 2);
        assert_eq!(c.obs_registry, "crates/obs/src/names.rs");
        assert!(!c.pub_surface_applies("ecas"));
        assert!(c.pub_surface_applies("ecas-sim"));
        assert_eq!(c.severity("layering", "ecas-sim"), Severity::Deny);
        assert_eq!(c.severity("hot-path-alloc", "ecas-sim"), Severity::Deny);
    }

    #[test]
    fn unknown_rule_is_rejected() {
        assert!(Config::parse("[rules]\nnot-a-rule = \"deny\"").is_err());
    }

    #[test]
    fn bad_severity_is_rejected() {
        assert!(Config::parse("[rules]\npanic-safety = \"fatal\"").is_err());
    }
}
