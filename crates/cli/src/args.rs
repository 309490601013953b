//! A small `--key value` argument parser (no external dependencies).
//!
//! Three flag forms are accepted:
//!
//! - `--key value` — the following argument is the value;
//! - `--key=value` — inline value (the value may itself start with
//!   `--`, which the two-argument form would swallow as a flag);
//! - `--key` followed by another flag or the end of the line — a bare
//!   boolean switch, read back with [`Args::get_bool_or`].
//!
//! [`Args`] remembers which flags the subcommand looked up; once it has
//! read everything it understands it calls [`Args::finish`], which
//! rejects any flag given on the command line but never read — a typo
//! or a flag of another subcommand — instead of silently ignoring it.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// First positional argument.
    pub command: Option<String>,
    options: BTreeMap<String, String>,
    /// Every flag name an accessor has looked up, given or not.
    read: RefCell<BTreeSet<String>>,
}

/// Argument-parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// A flag that requires a value was given as a bare switch.
    MissingValue(String),
    /// A value could not be parsed as the expected type.
    BadValue {
        /// The flag name.
        flag: String,
        /// The offending value.
        value: String,
    },
    /// An unexpected positional argument.
    UnexpectedPositional(String),
    /// A flag the subcommand does not read (in this invocation).
    UnknownFlag(String),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::MissingValue(flag) => write!(f, "missing value for --{flag}"),
            ArgsError::BadValue { flag, value } => {
                write!(f, "invalid value {value:?} for --{flag}")
            }
            ArgsError::UnexpectedPositional(arg) => {
                write!(f, "unexpected argument {arg:?}")
            }
            ArgsError::UnknownFlag(flag) => {
                write!(f, "unknown flag --{flag} for this command")
            }
        }
    }
}

impl Error for ArgsError {}

impl Args {
    /// Parses `args` (without the program name).
    ///
    /// A flag followed by another flag (or by nothing) is stored as a
    /// bare boolean switch; value-expecting accessors report
    /// [`ArgsError::MissingValue`] for it.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] on a stray positional after the
    /// subcommand.
    pub fn parse<I, S>(args: I) -> Result<Self, ArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = Args::default();
        let mut iter = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            if let Some(flag) = arg.strip_prefix("--") {
                if let Some((name, value)) = flag.split_once('=') {
                    out.options.insert(name.to_string(), value.to_string());
                } else if iter.peek().is_some_and(|next| !next.starts_with("--")) {
                    let value = iter.next().expect("peeked above");
                    out.options.insert(flag.to_string(), value);
                } else {
                    // Bare switch: present without a value.
                    out.options.insert(flag.to_string(), String::new());
                }
            } else if out.command.is_none() {
                out.command = Some(arg);
            } else {
                return Err(ArgsError::UnexpectedPositional(arg));
            }
        }
        Ok(out)
    }

    /// Raw string option.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.read.borrow_mut().insert(flag.to_string());
        self.options.get(flag).map(String::as_str)
    }

    /// Call once the subcommand has looked up every flag it
    /// understands, before it does any work.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::UnknownFlag`] naming the first flag that
    /// was given but that no accessor has read.
    pub fn finish(&self) -> Result<(), ArgsError> {
        let read = self.read.borrow();
        match self.options.keys().find(|flag| !read.contains(*flag)) {
            Some(flag) => Err(ArgsError::UnknownFlag(flag.clone())),
            None => Ok(()),
        }
    }

    /// String option with a default.
    pub fn get_or(&self, flag: &str, default: &str) -> String {
        self.get(flag).unwrap_or(default).to_string()
    }

    /// Typed option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::MissingValue`] if the flag was given as a
    /// bare switch, or [`ArgsError::BadValue`] if present but
    /// unparseable.
    pub fn get_parsed_or<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
    ) -> Result<T, ArgsError> {
        match self.get(flag) {
            None => Ok(default),
            Some("") => Err(ArgsError::MissingValue(flag.to_string())),
            Some(raw) => raw.parse().map_err(|_| ArgsError::BadValue {
                flag: flag.to_string(),
                value: raw.to_string(),
            }),
        }
    }

    /// Typed option with a default that must satisfy `ok`.
    ///
    /// # Errors
    ///
    /// As [`Args::get_parsed_or`], and [`ArgsError::BadValue`] if the
    /// value parses but `ok` rejects it.
    pub fn get_checked_or<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, ArgsError> {
        let value = self.get_parsed_or(flag, default)?;
        if ok(&value) {
            return Ok(value);
        }
        Err(ArgsError::BadValue {
            flag: flag.to_string(),
            value: self.options.get(flag).cloned().unwrap_or_default(),
        })
    }

    /// Boolean option with a default. A bare `--flag` counts as
    /// `true`; an explicit value must parse as `true` or `false`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::BadValue`] on an unparseable value.
    pub fn get_bool_or(&self, flag: &str, default: bool) -> Result<bool, ArgsError> {
        match self.get(flag) {
            None => Ok(default),
            Some("") => Ok(true),
            Some(raw) => raw.parse().map_err(|_| ArgsError::BadValue {
                flag: flag.to_string(),
                value: raw.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_flags() {
        let args = Args::parse(["workload", "--n", "4096", "--scheme", "tt"]).unwrap();
        assert_eq!(args.command.as_deref(), Some("workload"));
        assert_eq!(args.get("n"), Some("4096"));
        assert_eq!(args.get_or("scheme", "one"), "tt");
        assert_eq!(args.get_or("missing", "dflt"), "dflt");
    }

    #[test]
    fn typed_defaults() {
        let args = Args::parse(["model", "--alpha", "0.9"]).unwrap();
        assert_eq!(args.get_parsed_or("alpha", 0.8f64).unwrap(), 0.9);
        assert_eq!(args.get_parsed_or("k", 10u32).unwrap(), 10);
    }

    #[test]
    fn missing_value_rejected() {
        // A bare `--n` parses as a switch, but reading it as a value
        // still reports the missing value.
        let args = Args::parse(["x", "--n"]).unwrap();
        assert_eq!(
            args.get_parsed_or("n", 1u64).unwrap_err(),
            ArgsError::MissingValue("n".into())
        );
    }

    #[test]
    fn equals_form_parses() {
        let args = Args::parse(["workload", "--n=4096", "--scheme=tt"]).unwrap();
        assert_eq!(args.get("n"), Some("4096"));
        assert_eq!(args.get("scheme"), Some("tt"));
        assert_eq!(args.get_parsed_or("n", 1u64).unwrap(), 4096);
    }

    #[test]
    fn equals_form_value_may_contain_equals_or_dashes() {
        let args = Args::parse(["x", "--out=a=b", "--note=--literal"]).unwrap();
        assert_eq!(args.get("out"), Some("a=b"));
        assert_eq!(args.get("note"), Some("--literal"));
    }

    #[test]
    fn bare_switch_is_true() {
        let args = Args::parse(["workload", "--verify", "--n", "64"]).unwrap();
        assert!(args.get_bool_or("verify", false).unwrap());
        assert_eq!(args.get_parsed_or("n", 1u64).unwrap(), 64);
        // Trailing bare switch too.
        let args = Args::parse(["workload", "--verify"]).unwrap();
        assert!(args.get_bool_or("verify", false).unwrap());
    }

    #[test]
    fn explicit_bool_values() {
        let args = Args::parse(["x", "--verify", "false"]).unwrap();
        assert!(!args.get_bool_or("verify", true).unwrap());
        let args = Args::parse(["x", "--verify=true"]).unwrap();
        assert!(args.get_bool_or("verify", false).unwrap());
        let args = Args::parse(["x", "--verify", "maybe"]).unwrap();
        assert!(matches!(
            args.get_bool_or("verify", false),
            Err(ArgsError::BadValue { .. })
        ));
        assert!(args.get_bool_or("absent", true).unwrap());
    }

    #[test]
    fn bare_switch_reads_back_empty() {
        let args = Args::parse(["x", "--trace", "--metrics", "m.txt"]).unwrap();
        assert_eq!(args.get("trace"), Some(""));
        assert_eq!(args.get("metrics"), Some("m.txt"));
        assert_eq!(args.get("absent"), None);
    }

    #[test]
    fn bad_value_rejected() {
        let args = Args::parse(["x", "--n", "lots"]).unwrap();
        assert!(matches!(
            args.get_parsed_or("n", 1u64),
            Err(ArgsError::BadValue { .. })
        ));
    }

    #[test]
    fn stray_positional_rejected() {
        assert!(matches!(
            Args::parse(["a", "b"]),
            Err(ArgsError::UnexpectedPositional(_))
        ));
    }

    #[test]
    fn finish_rejects_a_flag_nobody_read() {
        let args = Args::parse(["workload", "--n", "64", "--threads", "8"]).unwrap();
        assert_eq!(args.get_parsed_or("n", 1u64).unwrap(), 64);
        assert_eq!(
            args.finish().unwrap_err(),
            ArgsError::UnknownFlag("threads".into())
        );
        // Reading it — through any accessor, in any form — clears it.
        let args = Args::parse(["x", "--a=1", "--b", "--c", "v"]).unwrap();
        assert!(args.finish().is_err());
        args.get("a");
        args.get_bool_or("b", false).unwrap();
        assert_eq!(
            args.finish().unwrap_err(),
            ArgsError::UnknownFlag("c".into())
        );
        args.get_or("c", "");
        assert_eq!(args.finish(), Ok(()));
    }

    #[test]
    fn finish_accepts_absent_and_defaulted_flags() {
        let args = Args::parse(["model"]).unwrap();
        assert_eq!(args.get_parsed_or("k", 10u32).unwrap(), 10);
        assert_eq!(args.finish(), Ok(()));
        assert_eq!(Args::parse(Vec::<String>::new()).unwrap().finish(), Ok(()));
    }

    #[test]
    fn empty_is_ok() {
        let args = Args::parse(Vec::<String>::new()).unwrap();
        assert!(args.command.is_none());
    }
}
