//! Abstract neuromorphic device descriptions.

/// An abstract neuromorphic device: a grid of cores, each hosting a bounded number of
/// threshold neurons with a bounded fan-in.
///
/// The presets are *-like* models: they use the publicly quoted neuron/core counts of
/// the systems cited in the paper's introduction, but they are calibration points for
/// the simulator, not datasheets.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable name.
    pub name: String,
    /// Number of cores available.
    pub cores: usize,
    /// Neurons (threshold gates) per core.
    pub neurons_per_core: usize,
    /// Maximum fan-in a single neuron supports, if limited.
    pub max_fan_in: Option<usize>,
    /// Energy charged per spike (per firing gate), in arbitrary energy units.
    pub energy_per_spike: f64,
    /// Time to evaluate one circuit layer, in nanoseconds.
    pub layer_time_ns: f64,
}

impl DeviceSpec {
    /// A TrueNorth-like device: 4096 cores × 256 neurons, fan-in 256.
    pub fn truenorth_like() -> Self {
        DeviceSpec {
            name: "truenorth-like".into(),
            cores: 4096,
            neurons_per_core: 256,
            max_fan_in: Some(256),
            energy_per_spike: 1.0,
            layer_time_ns: 1_000_000.0, // 1 ms tick
        }
    }

    /// A Loihi-like device: 128 cores × 1024 neurons, large but bounded fan-in.
    pub fn loihi_like() -> Self {
        DeviceSpec {
            name: "loihi-like".into(),
            cores: 128,
            neurons_per_core: 1024,
            max_fan_in: Some(4096),
            energy_per_spike: 0.5,
            layer_time_ns: 10_000.0,
        }
    }

    /// A SpiNNaker-like device: many small software neurons, effectively unlimited
    /// fan-in but slower layer time.
    pub fn spinnaker_like() -> Self {
        DeviceSpec {
            name: "spinnaker-like".into(),
            cores: 1_036_800 / 255,
            neurons_per_core: 255,
            max_fan_in: None,
            energy_per_spike: 2.0,
            layer_time_ns: 1_000_000.0,
        }
    }

    /// An idealised unconstrained device (infinite cores and fan-in), useful as the
    /// "theory" baseline.
    pub fn unconstrained() -> Self {
        DeviceSpec {
            name: "unconstrained".into(),
            cores: usize::MAX,
            neurons_per_core: usize::MAX,
            max_fan_in: None,
            energy_per_spike: 1.0,
            layer_time_ns: 1.0,
        }
    }

    /// Total neuron capacity of the device (saturating).
    pub fn total_neurons(&self) -> usize {
        self.cores.saturating_mul(self.neurons_per_core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let tn = DeviceSpec::truenorth_like();
        assert_eq!(tn.total_neurons(), 1_048_576);
        assert_eq!(tn.max_fan_in, Some(256));
        let loihi = DeviceSpec::loihi_like();
        assert_eq!(loihi.total_neurons(), 131_072);
        let spin = DeviceSpec::spinnaker_like();
        assert!(spin.max_fan_in.is_none());
        assert!(DeviceSpec::unconstrained().total_neurons() >= tn.total_neurons());
    }
}
