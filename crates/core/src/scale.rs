//! The run scale, read from the `LAZYCTRL_SCALE` environment variable.
//!
//! One parser serves every reader: the `repro_*` binaries size their
//! traces by it and the scenario registry sizes its testbeds by it. An
//! unrecognised value is an error, never a silent fallback to the small
//! scale.

/// Which scale a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop- and CI-sized (the default).
    Quick,
    /// The paper's topology sizes.
    Paper,
}

impl Scale {
    /// Parses a `LAZYCTRL_SCALE` value: unset is quick, anything but
    /// `quick`/`paper` is an error naming the accepted values.
    pub(crate) fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None | Some("quick") => Ok(Scale::Quick),
            Some("paper") => Ok(Scale::Paper),
            Some(other) => Err(format!(
                "LAZYCTRL_SCALE={other:?} is not a scale; accepted values: quick, paper"
            )),
        }
    }

    /// Reads and parses `LAZYCTRL_SCALE` (see `Scale::parse`).
    pub fn from_env() -> Result<Scale, String> {
        let value = std::env::var_os("LAZYCTRL_SCALE");
        let value = value.as_ref().map(|v| v.to_string_lossy());
        Scale::parse(value.as_deref())
    }

    /// Human-readable label (the spelling `Scale::parse` accepts).
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }

    /// The quick or the paper value.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_accepts_only_the_named_scales() {
        for (value, want) in [
            (None, Some(Scale::Quick)),
            (Some("quick"), Some(Scale::Quick)),
            (Some("paper"), Some(Scale::Paper)),
            (Some("x10"), None),
            (Some("Paper"), None),
            (Some("papr"), None),
            (Some("ci"), None),
            (Some("x100"), None),
            (Some(""), None),
        ] {
            let got = Scale::parse(value);
            assert_eq!(got.as_ref().ok(), want.as_ref(), "{value:?}");
            match got {
                // Every accepted spelling is the scale's own label.
                Ok(scale) => assert_eq!(value.unwrap_or("quick"), scale.label()),
                Err(msg) => assert!(msg.contains("quick, paper"), "{msg}"),
            }
        }
    }

    #[test]
    fn pick_follows_the_scale() {
        assert_eq!(Scale::Quick.pick(4, 16), 4);
        assert_eq!(Scale::Paper.pick(4, 16), 16);
    }
}
