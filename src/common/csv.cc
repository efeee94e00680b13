// Copyright 2026 The PLDP Authors.

#include "common/csv.h"

#include <cstdio>

namespace pldp {

namespace {
bool NeedsQuoting(const std::string& field, char sep) {
  for (char c : field) {
    if (c == sep || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}
}  // namespace

std::string CsvEncodeRow(const std::vector<std::string>& fields, char sep) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back(sep);
    const std::string& f = fields[i];
    if (NeedsQuoting(f, sep)) {
      out.push_back('"');
      for (char c : f) {
        if (c == '"') out.push_back('"');
        out.push_back(c);
      }
      out.push_back('"');
    } else {
      out += f;
    }
  }
  return out;
}

CsvWriter::CsvWriter(const std::string& path, char sep) : sep_(sep) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    status_ = Status::IoError("cannot open for writing: " + path);
  }
}

CsvWriter::~CsvWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  if (!status_.ok()) return status_;
  std::string row = CsvEncodeRow(fields, sep_);
  row.push_back('\n');
  if (std::fwrite(row.data(), 1, row.size(), file_) != row.size()) {
    status_ = Status::IoError("short write");
  }
  return status_;
}

Status CsvWriter::Close() {
  if (file_ != nullptr) {
    if (std::fclose(file_) != 0 && status_.ok()) {
      status_ = Status::IoError("close failed");
    }
    file_ = nullptr;
  }
  if (status_.ok()) return Status::OK();
  return status_;
}

}  // namespace pldp
