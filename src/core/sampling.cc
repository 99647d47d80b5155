#include "src/core/sampling.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/core/compare.h"
#include "src/core/parse_number.h"

namespace osprof {

void SampledProfile::Add(Cycles now, Cycles latency) {
  if (epoch_cycles_ == 0) {
    throw std::invalid_argument("epoch_cycles must be positive");
  }
  const std::size_t epoch = static_cast<std::size_t>(now / epoch_cycles_);
  while (epochs_.size() <= epoch) {
    epochs_.emplace_back(resolution_);
  }
  epochs_[epoch].Add(latency);
}

Histogram* SampledProfile::MutableEpoch(int i) {
  while (epochs_.size() <= static_cast<std::size_t>(i)) {
    epochs_.emplace_back(resolution_);
  }
  return &epochs_[static_cast<std::size_t>(i)];
}

Histogram SampledProfile::Flatten() const {
  Histogram out(resolution_);
  for (const Histogram& h : epochs_) {
    out.Merge(h);
  }
  return out;
}

SampledProfile* SampledProfileSet::Slot(std::string_view op) {
  const OpId existing = table_.Find(op);
  if (existing != kInvalidOpId) {
    return &profiles_[static_cast<std::size_t>(existing)];
  }
  const OpId id = table_.Intern(op);
  profiles_.emplace_back(std::string(op), epoch_cycles_, resolution_);
  return &profiles_[static_cast<std::size_t>(id)];
}

const SampledProfile* SampledProfileSet::Find(std::string_view op) const {
  const OpId id = table_.Find(op);
  return id == kInvalidOpId ? nullptr
                            : &profiles_[static_cast<std::size_t>(id)];
}

std::vector<std::string> SampledProfileSet::OperationNames() const {
  std::vector<std::string> names;
  names.reserve(table_.size());
  for (const auto& [name, id] : table_.by_name()) {
    names.push_back(name);
  }
  return names;
}

std::string SampledProfileSet::RenderGrid(const std::string& op,
                                          int first_bucket,
                                          int last_bucket) const {
  const SampledProfile* p = Find(op);
  std::ostringstream os;
  os << op << " sampled every " << epoch_cycles_ << " cycles\n";
  if (p == nullptr) {
    os << "  (no data)\n";
    return os.str();
  }
  for (int e = 0; e < p->num_epochs(); ++e) {
    os << "  epoch " << e << " |";
    const Histogram& h = p->epoch(e);
    // The bounds come from the command line: clip them to the histogram.
    const int last = std::min(last_bucket, h.num_buckets() - 1);
    for (int b = std::max(first_bucket, 0); b <= last; ++b) {
      const std::uint64_t c = h.bucket(b);
      char cell = '.';
      if (c > 100) {
        cell = '#';
      } else if (c > 10) {
        cell = '2';
      } else if (c > 0) {
        cell = '1';
      }
      os << cell;
    }
    os << "|\n";
  }
  return os.str();
}

std::vector<EpochChange> FindEpochChanges(const SampledProfile& profile,
                                          double threshold) {
  std::vector<EpochChange> changes;
  int previous = -1;
  for (int e = 0; e < profile.num_epochs(); ++e) {
    if (profile.epoch(e).empty()) {
      continue;
    }
    if (previous >= 0) {
      const double score =
          EarthMoversDistance(profile.epoch(previous), profile.epoch(e));
      if (score >= threshold) {
        changes.push_back(EpochChange{e, score});
      }
    }
    previous = e;
  }
  return changes;
}

void SampledProfileSet::Serialize(std::ostream& os) const {
  os << "# osprof sampled profile set v1\n";
  os << "resolution " << resolution_ << "\n";
  os << "epoch_cycles " << epoch_cycles_ << "\n";
  for (const auto& [name, id] : table_.by_name()) {
    const SampledProfile& profile = profiles_[static_cast<std::size_t>(id)];
    for (int e = 0; e < profile.num_epochs(); ++e) {
      const Histogram& h = profile.epoch(e);
      if (h.recorded() == 0 && h.TotalOperations() == 0) {
        continue;
      }
      os << "sampled " << name << " epoch=" << e
         << " recorded=" << h.recorded()
         << " total_latency=" << h.total_latency() << "\n";
      for (int b = 0; b < h.num_buckets(); ++b) {
        if (h.bucket(b) != 0) {
          os << "  bucket " << b << " " << h.bucket(b) << "\n";
        }
      }
      os << "end\n";
    }
  }
}

std::string SampledProfileSet::ToString() const {
  std::ostringstream os;
  Serialize(os);
  return os.str();
}

SampledProfileSet SampledProfileSet::Parse(std::istream& is) {
  std::string line;
  int lineno = 0;
  auto fail = [&lineno](const std::string& msg) {
    throw std::runtime_error("SampledProfileSet::Parse line " +
                             std::to_string(lineno) + ": " + msg);
  };
  int resolution = 1;
  Cycles epoch_cycles = 1;
  SampledProfileSet set(1, 1);
  bool configured = false;
  Histogram* current = nullptr;
  std::uint64_t current_recorded = 0;
  std::uint64_t current_total = 0;

  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok) || tok[0] == '#') {
      continue;
    }
    if (tok == "resolution") {
      if (!ReadNumber(ls, resolution)) {
        fail("malformed resolution");
      }
    } else if (tok == "epoch_cycles") {
      if (!ReadNumber(ls, epoch_cycles)) {
        fail("malformed epoch_cycles");
      }
    } else if (tok == "sampled") {
      if (!configured) {
        set = SampledProfileSet(epoch_cycles, resolution);
        configured = true;
      }
      std::string name;
      if (!(ls >> name)) {
        fail("sampled line missing op name");
      }
      int epoch = -1;
      current_recorded = 0;
      current_total = 0;
      std::string kv;
      while (ls >> kv) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos) {
          fail("malformed key=value: " + kv);
        }
        const std::string key = kv.substr(0, eq);
        const std::optional<std::uint64_t> value =
            ParseNumber<std::uint64_t>(std::string_view(kv).substr(eq + 1));
        if (!value) {
          fail("malformed number: " + kv);
        }
        if (key == "epoch") {
          epoch = static_cast<int>(*value);
        } else if (key == "recorded") {
          current_recorded = *value;
        } else if (key == "total_latency") {
          current_total = *value;
        } else {
          fail("unknown attribute: " + key);
        }
      }
      if (epoch < 0) {
        fail("sampled block missing epoch=");
      }
      // Materialize the profile (Add-like path) then grab the epoch.
      current = set.Slot(name)->MutableEpoch(epoch);
    } else if (tok == "bucket") {
      if (current == nullptr) {
        fail("bucket outside sampled block");
      }
      int index = 0;
      std::uint64_t count = 0;
      if (!ReadNumber(ls, index) || !ReadNumber(ls, count)) {
        fail("malformed bucket line");
      }
      if (index < 0 || index >= current->num_buckets()) {
        fail("bucket index out of range");
      }
      current->set_bucket(index, count);
    } else if (tok == "end") {
      if (current == nullptr) {
        fail("end outside sampled block");
      }
      current->SetTotals(current_recorded, current_total);
      current = nullptr;
    } else {
      fail("unknown directive: " + tok);
    }
  }
  if (current != nullptr) {
    fail("unterminated sampled block");
  }
  return set;
}

SampledProfileSet SampledProfileSet::ParseString(const std::string& text) {
  std::istringstream is(text);
  return Parse(is);
}

std::string SampledProfileSet::RenderGnuplot3D(const std::string& op,
                                               double cpu_hz) const {
  const SampledProfile* p = Find(op);
  std::ostringstream os;
  os << "# gnuplot script generated by osprof (sampled/3-D profile)\n";
  os << "set title '" << op << "'\n";
  os << "set xlabel 'Bucket number: floor(log2(latency in CPU cycles))'\n";
  os << "set ylabel 'Elapsed time (sec)'\n";
  if (p == nullptr) {
    os << "# (no data)\n";
    return os.str();
  }
  os << "plot '-' using 1:2 with points pt 7 ps 0.4 title '1-10 Operations', \\\n"
     << "     '-' using 1:2 with points pt 7 ps 0.8 title '11-100 Operations', \\\n"
     << "     '-' using 1:2 with points pt 5 ps 1.2 title '> 100 Operations'\n";
  // Three data blocks, one per density class.
  for (int klass = 0; klass < 3; ++klass) {
    for (int e = 0; e < p->num_epochs(); ++e) {
      const double t =
          static_cast<double>(e) * static_cast<double>(epoch_cycles_) / cpu_hz;
      const Histogram& h = p->epoch(e);
      for (int b = 0; b < h.num_buckets(); ++b) {
        const std::uint64_t c = h.bucket(b);
        const bool in_class = (klass == 0 && c >= 1 && c <= 10) ||
                              (klass == 1 && c > 10 && c <= 100) ||
                              (klass == 2 && c > 100);
        if (in_class) {
          os << b << " " << t << "\n";
        }
      }
    }
    os << "e\n";
  }
  return os.str();
}

}  // namespace osprof
