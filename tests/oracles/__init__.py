"""Reference implementations the differential tests compare against."""
