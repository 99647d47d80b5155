#include "src/core/layered.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/core/histogram.h"
#include "src/core/parse_number.h"

namespace osprof {
namespace {

// Serialization keys, indexed by LayerComponent.  Shorter than the display
// names where it keeps bucket lines readable.
constexpr const char* kComponentKeys[kNumLayerComponents] = {
    "self", "fs", "driver", "net", "lock", "runq",
};

constexpr const char* kComponentNames[kNumLayerComponents] = {
    "self", "fs", "driver", "net", "lock_wait", "run_queue",
};

// Bar glyph per component for the stacked ASCII view.
constexpr char kComponentGlyphs[kNumLayerComponents] = {'#', 'f', 'D',
                                                        'N', 'L', 'r'};

constexpr int kBarWidth = 32;

}  // namespace

const char* LayerComponentName(LayerComponent c) {
  return kComponentNames[static_cast<int>(c)];
}

LayeredProfile::LayeredProfile(int resolution)
    : resolution_(resolution),
      // BucketCount validates the resolution range; the planes cover every
      // bucket BucketIndex can produce at this resolution.
      num_buckets_(BucketCount(resolution)),
      stride_(static_cast<std::size_t>(num_buckets_)),
      counts_(stride_, 0),
      forced_(stride_, 0),
      cycles_(stride_ * kNumLayerComponents, 0) {}

void LayeredProfile::SetBucket(int bucket, const LayeredBucket& data) {
  if (bucket < 0 || bucket >= num_buckets_) {
    throw std::out_of_range("LayeredProfile::SetBucket: bucket " +
                            std::to_string(bucket) + " out of range");
  }
  const auto b = static_cast<std::size_t>(bucket);
  counts_[b] = data.count;
  forced_[b] = 1;
  for (int c = 0; c < kNumLayerComponents; ++c) {
    cycles_[static_cast<std::size_t>(c) * stride_ + b] = data.cycles[c];
  }
}

void LayeredProfile::Merge(const LayeredProfile& other) {
  const int n = std::min(num_buckets_, other.num_buckets_);
  for (std::size_t b = 0; b < static_cast<std::size_t>(n); ++b) {
    if (!other.Occupied(b)) {
      continue;
    }
    counts_[b] += other.counts_[b];
    // Keep explicitly-installed zero-count buckets visible across merges.
    forced_[b] |= other.forced_[b];
    for (int c = 0; c < kNumLayerComponents; ++c) {
      cycles_[static_cast<std::size_t>(c) * stride_ + b] +=
          other.cycles_[static_cast<std::size_t>(c) * stride_ + b];
    }
  }
}

void LayeredProfile::ClearCounts() {
  std::fill(counts_.begin(), counts_.end(), 0);
  std::fill(forced_.begin(), forced_.end(), 0);
  std::fill(cycles_.begin(), cycles_.end(), 0);
}

bool LayeredProfile::empty() const {
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (Occupied(b)) {
      return false;
    }
  }
  return true;
}

std::map<int, LayeredBucket> LayeredProfile::buckets() const {
  std::map<int, LayeredBucket> out;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (!Occupied(b)) {
      continue;
    }
    LayeredBucket data;
    data.count = counts_[b];
    for (int c = 0; c < kNumLayerComponents; ++c) {
      data.cycles[c] = cycles_[static_cast<std::size_t>(c) * stride_ + b];
    }
    out.emplace(static_cast<int>(b), data);
  }
  return out;
}

void LayeredProfileSet::Merge(const LayeredProfileSet& other) {
  if (other.resolution_ != resolution_) {
    throw std::invalid_argument(
        "LayeredProfileSet::Merge: sets differ in resolution");
  }
  for (const auto& [name, profile] : other.profiles_) {
    if (!profile.empty()) {
      Slot(name)->Merge(profile);
    }
  }
}

void SerializeLayers(const std::map<std::string, LayeredProfileSet>& layers,
                     std::ostream& os) {
  os << "# osprof layers v1\n";
  for (const auto& [layer, set] : layers) {
    if (set.empty()) {
      continue;
    }
    os << "layer " << layer << " resolution " << set.resolution() << "\n";
    for (const auto& [op, profile] : set) {
      if (profile.empty()) {
        continue;
      }
      os << "op " << op << "\n";
      for (const auto& [bucket, data] : profile.buckets()) {
        os << "  bucket " << bucket << " count " << data.count;
        for (int c = 0; c < kNumLayerComponents; ++c) {
          os << " " << kComponentKeys[c] << " " << data.cycles[c];
        }
        os << "\n";
      }
      os << "end op\n";
    }
    os << "end layer\n";
  }
}

std::string LayersToString(
    const std::map<std::string, LayeredProfileSet>& layers) {
  std::ostringstream os;
  SerializeLayers(layers, os);
  return os.str();
}

std::map<std::string, LayeredProfileSet> ParseLayers(std::istream& is) {
  std::map<std::string, LayeredProfileSet> out;
  std::string line;
  int lineno = 0;
  LayeredProfileSet* set = nullptr;
  LayeredProfile* profile = nullptr;

  auto fail = [&lineno](const std::string& msg) {
    throw std::runtime_error("ParseLayers line " + std::to_string(lineno) +
                             ": " + msg);
  };

  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok) || tok[0] == '#') {
      continue;
    }
    if (tok == "layer") {
      if (set != nullptr) {
        fail("nested layer block");
      }
      std::string name;
      std::string key;
      int resolution = 0;
      if (!(ls >> name >> key) || key != "resolution" ||
          !ReadNumber(ls, resolution) || resolution < 1) {
        fail("malformed layer line");
      }
      set = &out.emplace(name, LayeredProfileSet(resolution)).first->second;
    } else if (tok == "op") {
      if (set == nullptr || profile != nullptr) {
        fail("op outside layer block");
      }
      std::string name;
      if (!(ls >> name)) {
        fail("op line missing name");
      }
      profile = set->Slot(name);
    } else if (tok == "bucket") {
      if (profile == nullptr) {
        fail("bucket outside op block");
      }
      int bucket = 0;
      std::string key;
      LayeredBucket data;
      if (!ReadNumber(ls, bucket) || bucket < 0 || !(ls >> key) ||
          key != "count" || !ReadNumber(ls, data.count)) {
        fail("malformed bucket line");
      }
      for (int c = 0; c < kNumLayerComponents; ++c) {
        if (!(ls >> key) || key != kComponentKeys[c] ||
            !ReadNumber(ls, data.cycles[c])) {
          fail("malformed component list");
        }
      }
      profile->SetBucket(bucket, data);
    } else if (tok == "end") {
      std::string what;
      if (!(ls >> what)) {
        fail("bare end");
      }
      if (what == "op") {
        if (profile == nullptr) {
          fail("end op outside op block");
        }
        profile = nullptr;
      } else if (what == "layer") {
        if (set == nullptr || profile != nullptr) {
          fail("end layer outside layer block");
        }
        set = nullptr;
      } else {
        fail("unknown end: " + what);
      }
    } else {
      fail("unknown directive: " + tok);
    }
  }
  if (set != nullptr || profile != nullptr) {
    fail("unterminated block");
  }
  return out;
}

std::map<std::string, LayeredProfileSet> ParseLayersString(
    const std::string& text) {
  std::istringstream is(text);
  return ParseLayers(is);
}

std::string RenderLayers(
    const std::map<std::string, LayeredProfileSet>& layers) {
  std::ostringstream os;
  for (const auto& [layer, set] : layers) {
    if (set.empty()) {
      continue;
    }
    os << "layer " << layer << " (resolution " << set.resolution() << ")\n";
    for (const auto& [op, profile] : set) {
      if (profile.empty()) {
        continue;
      }
      os << "  " << op << "\n";
      for (const auto& [bucket, data] : profile.buckets()) {
        const Cycles total = data.TotalCycles();
        char bar[kBarWidth + 1];
        for (int i = 0; i < kBarWidth; ++i) {
          bar[i] = ' ';
        }
        bar[kBarWidth] = '\0';
        if (total > 0) {
          // Cumulative proportional positions: component c fills columns
          // [cum_before * W / total, cum_after * W / total) -- integer
          // arithmetic, sums to exactly W, deterministic.
          Cycles cum = 0;
          int col = 0;
          for (int c = 0; c < kNumLayerComponents; ++c) {
            cum += data.cycles[c];
            const int next =
                static_cast<int>(cum * static_cast<Cycles>(kBarWidth) / total);
            for (; col < next; ++col) {
              bar[col] = kComponentGlyphs[c];
            }
          }
        }
        char line[192];
        std::snprintf(line, sizeof(line),
                      "    bucket %2d  x%-8llu |%s|", bucket,
                      static_cast<unsigned long long>(data.count), bar);
        os << line;
        for (int c = 0; c < kNumLayerComponents; ++c) {
          if (data.cycles[c] == 0) {
            continue;
          }
          const std::uint64_t pct =
              total > 0 ? data.cycles[c] * 100 / total : 0;
          os << " " << kComponentNames[c] << "=" << pct << "%";
        }
        os << "\n";
      }
    }
  }
  os << "legend: ";
  for (int c = 0; c < kNumLayerComponents; ++c) {
    os << (c > 0 ? "  " : "") << kComponentGlyphs[c] << "="
       << kComponentNames[c];
  }
  os << "\n";
  return os.str();
}

}  // namespace osprof
