//! The architectural layer stack of Fig. 1 — the one layer enum shared
//! by every crate in the workspace.
//!
//! It lives in `autosec-sim` (the base crate) so that both the
//! framework (`autosec-core`) and the cross-cutting defenses
//! (`autosec-ids`) can speak the same layer vocabulary without a lossy
//! mapping between near-duplicate enums.

use std::fmt;

/// The architectural layers of Fig. 1 (plus the collaboration layer of
/// §VII, which the paper treats as the layer above the system of
/// systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArchLayer {
    /// §II — sensors, UWB ranging, PKES.
    Physical,
    /// §III — CAN/Ethernet IVN and its security protocols.
    Network,
    /// §IV — software-defined vehicle, SSI trust fabric.
    SoftwarePlatform,
    /// §V — telemetry, cloud backends, privacy.
    Data,
    /// §VI — the MaaS system of systems.
    SystemOfSystems,
    /// §VII — collaborating autonomous systems.
    Collaboration,
}

impl ArchLayer {
    /// All layers, bottom-up (Fig. 1 order).
    pub const ALL: [ArchLayer; 6] = [
        ArchLayer::Physical,
        ArchLayer::Network,
        ArchLayer::SoftwarePlatform,
        ArchLayer::Data,
        ArchLayer::SystemOfSystems,
        ArchLayer::Collaboration,
    ];

    /// The paper section discussing this layer.
    pub fn paper_section(&self) -> &'static str {
        match self {
            ArchLayer::Physical => "II",
            ArchLayer::Network => "III",
            ArchLayer::SoftwarePlatform => "IV",
            ArchLayer::Data => "V",
            ArchLayer::SystemOfSystems => "VI",
            ArchLayer::Collaboration => "VII",
        }
    }

    /// Parses a layer label back into a layer, case-insensitively:
    /// the `Display` strings plus a few forgiving aliases.
    pub fn parse(s: &str) -> Option<ArchLayer> {
        match s.to_lowercase().as_str() {
            "physical" | "phy" => Some(ArchLayer::Physical),
            "network" | "net" | "ivn" => Some(ArchLayer::Network),
            "software/platform" | "software-platform" | "platform" | "sdv" => {
                Some(ArchLayer::SoftwarePlatform)
            }
            "data" => Some(ArchLayer::Data),
            "system-of-systems" | "sos" => Some(ArchLayer::SystemOfSystems),
            "collaboration" | "collab" => Some(ArchLayer::Collaboration),
            _ => None,
        }
    }
}

impl fmt::Display for ArchLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArchLayer::Physical => "physical",
            ArchLayer::Network => "network",
            ArchLayer::SoftwarePlatform => "software/platform",
            ArchLayer::Data => "data",
            ArchLayer::SystemOfSystems => "system-of-systems",
            ArchLayer::Collaboration => "collaboration",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_layers_in_order() {
        assert_eq!(ArchLayer::ALL.len(), 6);
        assert!(ArchLayer::Physical < ArchLayer::Collaboration);
        assert_eq!(ArchLayer::Physical.paper_section(), "II");
        assert_eq!(ArchLayer::Collaboration.paper_section(), "VII");
    }

    #[test]
    fn display_and_sections() {
        assert_eq!(ArchLayer::Network.to_string(), "network");
        assert_eq!(ArchLayer::Data.paper_section(), "V");
    }

    #[test]
    fn layer_labels_round_trip_through_parse() {
        for layer in ArchLayer::ALL {
            assert_eq!(ArchLayer::parse(&layer.to_string()), Some(layer));
        }
        assert_eq!(ArchLayer::parse("SOS"), Some(ArchLayer::SystemOfSystems));
        assert_eq!(ArchLayer::parse("nope"), None);
    }
}
