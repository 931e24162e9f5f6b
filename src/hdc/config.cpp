#include "hdc/config.hpp"

#include <stdexcept>

namespace hdtest::hdc {

ValueStrategy parse_value_strategy(const std::string& name) {
  if (name == "random") return ValueStrategy::kRandom;
  if (name == "level") return ValueStrategy::kLevel;
  if (name == "thermometer") return ValueStrategy::kThermometer;
  throw std::invalid_argument("parse_value_strategy: unknown strategy '" +
                              name + "' (want random|level|thermometer)");
}

std::string to_string(ValueStrategy strategy) {
  switch (strategy) {
    case ValueStrategy::kRandom: return "random";
    case ValueStrategy::kLevel: return "level";
    case ValueStrategy::kThermometer: return "thermometer";
  }
  return "unknown";
}

std::string to_string(Similarity metric) {
  switch (metric) {
    case Similarity::kCosine: return "cosine";
    case Similarity::kHamming: return "hamming";
  }
  return "unknown";
}

void ModelConfig::validate() const {
  if (dim == 0) {
    throw std::invalid_argument("ModelConfig: dim must be non-zero");
  }
  if (value_levels < 2) {
    throw std::invalid_argument("ModelConfig: need at least 2 value levels");
  }
  if (value_levels > 4096) {
    throw std::invalid_argument("ModelConfig: value_levels unreasonably large");
  }
}

}  // namespace hdtest::hdc
