//! Strict command-line parsing shared by the experiment binaries.
//!
//! Each binary declares the flags it accepts; anything else — a typo,
//! a flag another binary takes, a flag missing its value — stops the
//! binary with exit status 2 and the accepted list, instead of being
//! ignored while a default run starts.

use std::process::exit;

/// The command line a binary accepts.
#[derive(Clone, Copy, Debug)]
pub struct Cli {
    /// Flags that take no value (`--quick`).
    pub switches: &'static [&'static str],
    /// Flags that take the next argument as their value (`--seed-b N`).
    pub valued: &'static [&'static str],
    /// Names of the bare (non-flag) arguments, in order; all optional.
    pub positional: &'static [&'static str],
}

/// A command line parsed against a [`Cli`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    switches: Vec<String>,
    values: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Cli {
    /// A command line of switches only.
    pub const fn switches(switches: &'static [&'static str]) -> Self {
        Cli {
            switches,
            valued: &[],
            positional: &[],
        }
    }

    /// Parses `args` (the program name excluded).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first argument this command line
    /// does not accept, or a valued flag missing its value.
    pub fn parse(&self, args: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if self.switches.contains(&arg.as_str()) {
                out.switches.push(arg.clone());
            } else if self.valued.contains(&arg.as_str()) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                out.values.push((arg.clone(), value.clone()));
            } else if arg.starts_with('-') || out.positional.len() == self.positional.len() {
                return Err(format!("unexpected argument {arg}"));
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// The accepted command line, for error messages.
    pub fn usage(&self) -> String {
        let mut parts: Vec<String> = self.switches.iter().map(|s| format!("[{s}]")).collect();
        parts.extend(self.valued.iter().map(|v| format!("[{v} <value>]")));
        parts.extend(self.positional.iter().map(|p| format!("[{p}]")));
        if parts.is_empty() {
            "no arguments".to_string()
        } else {
            parts.join(" ")
        }
    }

    /// Parses the process's arguments; a rejected one ends the process
    /// through [`Cli::fail`].
    pub fn args(&self) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        self.parse(&args)
            .unwrap_or_else(|message| self.fail(&message))
    }

    /// Prints `message` and the accepted command line, then exits with
    /// status 2.
    pub fn fail(&self, message: &str) -> ! {
        eprintln!("error: {message}");
        eprintln!("accepted: {}", self.usage());
        exit(2)
    }
}

impl Args {
    /// Whether the switch `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The value of the valued flag `name`, if given (the last one
    /// wins).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    }

    /// The bare arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    const SCALING: Cli = Cli::switches(&["--smoke", "--quick", "--fixed", "--fork"]);
    const TRACE_DIFF: Cli = Cli {
        switches: &[],
        valued: &["--seed-b", "--from-snapshot"],
        positional: &["topology/curve/policy"],
    };

    #[test]
    fn accepted_flags_parse() {
        let args = SCALING.parse(&argv(&["--smoke", "--fork"])).unwrap();
        assert!(args.flag("--smoke") && args.flag("--fork"));
        assert!(!args.flag("--fixed"));
        assert!(SCALING.parse(&[]).unwrap().positional().is_empty());
        let args = TRACE_DIFF
            .parse(&argv(&["dual2/burst/ea+dvfs", "--seed-b", "7"]))
            .unwrap();
        assert_eq!(args.positional(), ["dual2/burst/ea+dvfs"]);
        assert_eq!(args.value("--seed-b"), Some("7"));
        assert_eq!(args.value("--from-snapshot"), None);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // The typo that used to run the whole sweep silently.
        let err = SCALING.parse(&argv(&["--frok"])).unwrap_err();
        assert!(err.contains("--frok"), "{err}");
        // Another binary's flag, a bare argument where none is taken.
        assert!(SCALING.parse(&argv(&["--trace"])).is_err());
        assert!(SCALING.parse(&argv(&["results"])).is_err());
        // Valued flags need their value; positionals are bounded.
        assert!(TRACE_DIFF.parse(&argv(&["--seed-b"])).is_err());
        assert!(TRACE_DIFF.parse(&argv(&["a/b/c", "d/e/f"])).is_err());
        assert!(TRACE_DIFF.parse(&argv(&["--seed"])).is_err());
    }

    #[test]
    fn usage_lists_every_accepted_argument() {
        let usage = TRACE_DIFF.usage();
        for part in [
            "--seed-b <value>",
            "--from-snapshot <value>",
            "topology/curve/policy",
        ] {
            assert!(usage.contains(part), "{usage}");
        }
        assert_eq!(SCALING.usage(), "[--smoke] [--quick] [--fixed] [--fork]");
        assert_eq!(Cli::switches(&[]).usage(), "no arguments");
    }
}
