package data

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// SaveJSON writes the dataset as one JSON file. The format is
// self-describing and intended for interchange with other MDR research
// code.
func SaveJSON(d *Dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("data: create %s: %w", path, err)
	}
	w := bufio.NewWriter(f)
	if err := errors.Join(json.NewEncoder(w).Encode(d), w.Flush(), f.Close()); err != nil {
		return fmt.Errorf("data: write %s: %w", path, err)
	}
	return nil
}

// SHA256 is the hex SHA-256 of SaveJSON's encoding of d: the digest of
// the file SaveJSON writes.
func SHA256(d *Dataset) (string, error) {
	h := sha256.New()
	err := json.NewEncoder(h).Encode(d)
	return hex.EncodeToString(h.Sum(nil)), err
}

// FileSHA256 is the hex SHA-256 of the file at path.
func FileSHA256(path string) (string, error) {
	b, err := os.ReadFile(path)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), err
}

// LoadJSON reads a dataset previously written by SaveJSON and validates
// it.
func LoadJSON(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("data: open %s: %w", path, err)
	}
	defer f.Close()
	var d Dataset
	if err := json.NewDecoder(bufio.NewReader(f)).Decode(&d); err != nil {
		return nil, fmt.Errorf("data: decode %s: %w", path, err)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("data: %s: %w", path, err)
	}
	return &d, nil
}
